package packet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadPrefix reports an unparseable or non-canonical prefix string.
var ErrBadPrefix = errors.New("packet: bad prefix")

// ParsePrefix parses the CIDR form Prefix.String emits
// ("10.1.0.0/16"). The parser is strict: exactly four decimal octets
// in 0..255 with no leading zeros beyond "0" itself, a length in
// 0..32, and no host bits set beyond the length — a receipt stream
// identifier must have exactly one accepted spelling, so anything
// non-canonical is rejected with ErrBadPrefix rather than normalized.
func ParsePrefix(s string) (Prefix, error) {
	addr, bitsStr, ok := strings.Cut(s, "/")
	if !ok {
		return Prefix{}, fmt.Errorf("%w: %q has no /length", ErrBadPrefix, s)
	}
	var p Prefix
	rest := addr
	for i := 0; i < 4; i++ {
		var oct string
		if i < 3 {
			oct, rest, ok = strings.Cut(rest, ".")
			if !ok {
				return Prefix{}, fmt.Errorf("%w: %q has fewer than 4 octets", ErrBadPrefix, s)
			}
		} else {
			oct = rest
		}
		v, err := parseDecimal(oct, 255)
		if err != nil {
			return Prefix{}, fmt.Errorf("%w: octet %q: %v", ErrBadPrefix, oct, err)
		}
		p.Addr[i] = byte(v)
	}
	bits, err := parseDecimal(bitsStr, 32)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: length %q: %v", ErrBadPrefix, bitsStr, err)
	}
	p.Bits = uint8(bits)
	if canon := MakePrefix(p.Addr[0], p.Addr[1], p.Addr[2], p.Addr[3], bits); canon != p {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set beyond /%d", ErrBadPrefix, s, p.Bits)
	}
	return p, nil
}

// parseDecimal parses a canonical decimal in [0, max]: digits only, no
// sign, no leading zeros (except "0").
func parseDecimal(s string, max int) (int, error) {
	if s == "" {
		return 0, errors.New("empty")
	}
	if len(s) > 1 && s[0] == '0' {
		return 0, errors.New("leading zero")
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errors.New("non-digit")
		}
	}
	v, err := strconv.Atoi(s)
	if err != nil || v > max {
		return 0, fmt.Errorf("out of range 0..%d", max)
	}
	return v, nil
}

// ParsePathKey parses the form PathKey.String emits
// ("10.1.0.0/16->172.16.0.0/16"). Strict like ParsePrefix: malformed
// input returns an error wrapping ErrBadPrefix (match with errors.Is).
func ParsePathKey(s string) (PathKey, error) {
	src, dst, ok := strings.Cut(s, "->")
	if !ok {
		return PathKey{}, fmt.Errorf("%w: path key %q has no \"->\"", ErrBadPrefix, s)
	}
	sp, err := ParsePrefix(src)
	if err != nil {
		return PathKey{}, err
	}
	dp, err := ParsePrefix(dst)
	if err != nil {
		return PathKey{}, err
	}
	return PathKey{Src: sp, Dst: dp}, nil
}
