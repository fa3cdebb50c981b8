package seqdetect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// A standalone binary encoding of one SeqVerdict. Deployed reports
// carry verdicts inside the epoch report (core.AppendSeqVerdicts), so
// only this package's tests use it. Little-endian, fixed-width fields,
// canonical: exactly one byte string encodes a given verdict, and
// DecodeVerdict rejects
// anything else (non-canonical padding, trailing bytes, out-of-range
// tags) with a typed error. FuzzSeqVerdictDecode holds the codec to
// typed-error-or-valid with byte-identical re-encoding.
//
// Layout:
//   magic[2]="SQ" version[1]=1 class[1]
//   up[4] down[4] epoch[8] frac[8] n[8] stat[8] alpha[8] beta[8]
//   keyLen[2] key[...] domainLen[2] domain[...]
//   trajLen[2] (traj[8])*

const (
	verdictMagic0  = 'S'
	verdictMagic1  = 'Q'
	verdictVersion = 1
	// verdictFixedLen is the byte length up to the variable tail.
	verdictFixedLen = 2 + 1 + 1 + 4 + 4 + 8*6

	// MaxVerdictStringLen bounds the key and domain strings;
	// MaxVerdictTrajectory bounds the trajectory — both far above
	// anything an engine emits, low enough that a hostile length
	// field cannot balloon a decode.
	MaxVerdictStringLen  = 256
	MaxVerdictTrajectory = 1024
)

// ErrCorruptVerdict is the typed error every malformed SeqVerdict
// decode wraps.
var ErrCorruptVerdict = errors.New("seqdetect: corrupt verdict encoding")

// AppendBinary appends the verdict's canonical encoding to dst.
func (v SeqVerdict) AppendBinary(dst []byte) []byte {
	var b [verdictFixedLen]byte
	b[0], b[1], b[2], b[3] = verdictMagic0, verdictMagic1, verdictVersion, byte(v.Class)
	binary.LittleEndian.PutUint32(b[4:8], v.Up)
	binary.LittleEndian.PutUint32(b[8:12], v.Down)
	binary.LittleEndian.PutUint64(b[12:20], v.Epoch)
	binary.LittleEndian.PutUint64(b[20:28], math.Float64bits(v.Frac))
	binary.LittleEndian.PutUint64(b[28:36], v.N)
	binary.LittleEndian.PutUint64(b[36:44], math.Float64bits(v.Stat))
	binary.LittleEndian.PutUint64(b[44:52], math.Float64bits(v.Alpha))
	binary.LittleEndian.PutUint64(b[52:60], math.Float64bits(v.Beta))
	dst = append(dst, b[:]...)
	dst = appendShortString(dst, v.Key)
	dst = appendShortString(dst, v.Domain)
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], uint16(len(v.Trajectory)))
	dst = append(dst, t[:]...)
	var f [8]byte
	for _, p := range v.Trajectory {
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(p))
		dst = append(dst, f[:]...)
	}
	return dst
}

func appendShortString(dst []byte, s string) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	dst = append(dst, n[:]...)
	return append(dst, s...)
}

func decodeShortString(b []byte, what string) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: truncated %s length", ErrCorruptVerdict, what)
	}
	n := int(binary.LittleEndian.Uint16(b[:2]))
	b = b[2:]
	if n > MaxVerdictStringLen {
		return "", nil, fmt.Errorf("%w: %s length %d exceeds %d", ErrCorruptVerdict, what, n, MaxVerdictStringLen)
	}
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: truncated %s", ErrCorruptVerdict, what)
	}
	return string(b[:n]), b[n:], nil
}

// DecodeVerdict parses one verdict from b, which must contain exactly
// one encoding: trailing bytes are rejected, so a successful decode
// re-encodes byte-identically. Malformed input returns an error
// wrapping ErrCorruptVerdict (match with errors.Is).
func DecodeVerdict(b []byte) (SeqVerdict, error) {
	var v SeqVerdict
	if len(b) < verdictFixedLen {
		return v, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorruptVerdict, len(b), verdictFixedLen)
	}
	if b[0] != verdictMagic0 || b[1] != verdictMagic1 {
		return v, fmt.Errorf("%w: bad magic", ErrCorruptVerdict)
	}
	if b[2] != verdictVersion {
		return v, fmt.Errorf("%w: unknown version %d", ErrCorruptVerdict, b[2])
	}
	v.Class = Class(b[3])
	if v.Class < ClassLoss || v.Class > ClassBias {
		return v, fmt.Errorf("%w: unknown class %d", ErrCorruptVerdict, b[3])
	}
	v.Up = binary.LittleEndian.Uint32(b[4:8])
	v.Down = binary.LittleEndian.Uint32(b[8:12])
	v.Epoch = binary.LittleEndian.Uint64(b[12:20])
	v.Frac = math.Float64frombits(binary.LittleEndian.Uint64(b[20:28]))
	v.N = binary.LittleEndian.Uint64(b[28:36])
	v.Stat = math.Float64frombits(binary.LittleEndian.Uint64(b[36:44]))
	v.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(b[44:52]))
	v.Beta = math.Float64frombits(binary.LittleEndian.Uint64(b[52:60]))
	rest := b[verdictFixedLen:]
	var err error
	if v.Key, rest, err = decodeShortString(rest, "key"); err != nil {
		return SeqVerdict{}, err
	}
	if v.Domain, rest, err = decodeShortString(rest, "domain"); err != nil {
		return SeqVerdict{}, err
	}
	if len(rest) < 2 {
		return SeqVerdict{}, fmt.Errorf("%w: truncated trajectory length", ErrCorruptVerdict)
	}
	n := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if n > MaxVerdictTrajectory {
		return SeqVerdict{}, fmt.Errorf("%w: trajectory length %d exceeds %d", ErrCorruptVerdict, n, MaxVerdictTrajectory)
	}
	if len(rest) != n*8 {
		return SeqVerdict{}, fmt.Errorf("%w: trajectory wants %d bytes, have %d", ErrCorruptVerdict, n*8, len(rest))
	}
	if n > 0 {
		v.Trajectory = make([]float64, n)
		for i := range v.Trajectory {
			v.Trajectory[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
			rest = rest[8:]
		}
	}
	return v, nil
}
