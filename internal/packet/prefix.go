package packet

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"vpm/internal/intern"
)

// Prefix is an IPv4 routing prefix (an "origin prefix" in BGP terms).
// The paper names HOP paths by their source and destination origin
// prefixes; HOPs classify packets by looking their addresses up in a
// table of advertised prefixes.
//
// Both fields are bytes, so a Prefix is 5 bytes and a PathKey 10, with
// no padding: maps keyed by them hash and compare the key as one block
// of memory instead of field by field.
type Prefix struct {
	Addr [4]byte
	Bits uint8 // prefix length, 0..32
}

// MakePrefix builds a Prefix from four address octets and a length,
// normalizing host bits to zero. It panics on a length outside 0..32.
func MakePrefix(a, b, c, d byte, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("packet: invalid prefix length %d", bits))
	}
	p := Prefix{Addr: [4]byte{a, b, c, d}, Bits: uint8(bits)}
	v := p.uint32() & p.mask()
	binary.BigEndian.PutUint32(p.Addr[:], v)
	return p
}

func (p Prefix) uint32() uint32 { return binary.BigEndian.Uint32(p.Addr[:]) }

func (p Prefix) mask() uint32 {
	if p.Bits == 0 {
		return 0
	}
	if p.Bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - p.Bits)
}

// Contains reports whether address a falls inside the prefix.
func (p Prefix) Contains(a [4]byte) bool {
	return binary.BigEndian.Uint32(a[:])&p.mask() == p.uint32()
}

// AppendText appends the prefix in CIDR notation to dst.
func (p Prefix) AppendText(dst []byte) []byte {
	for i, o := range p.Addr {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(o), 10)
	}
	dst = append(dst, '/')
	return strconv.AppendUint(dst, uint64(p.Bits), 10)
}

// String renders the prefix in CIDR notation. Prefixes name traffic
// keys all over receipts and verdicts, so the rendering is interned:
// each distinct prefix allocates its string once per process.
func (p Prefix) String() string {
	var buf [20]byte
	return intern.Bytes(p.AppendText(buf[:0]))
}

// Compare totally orders prefixes by address, then length: -1, 0 or +1
// as p sorts before, equal to, or after q. Used to emit receipts in a
// deterministic order.
func (p Prefix) Compare(q Prefix) int {
	pv, qv := p.uint32(), q.uint32()
	switch {
	case pv < qv:
		return -1
	case pv > qv:
		return 1
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	}
	return 0
}

// PathKey identifies a HOP path by its source and destination origin
// prefixes (the paper's HeaderSpec "includes at least a source and
// destination origin-prefix pair").
type PathKey struct {
	Src, Dst Prefix
}

// AppendText appends "src->dst" in CIDR notation to dst.
func (k PathKey) AppendText(dst []byte) []byte {
	dst = k.Src.AppendText(dst)
	dst = append(dst, '-', '>')
	return k.Dst.AppendText(dst)
}

// String renders "src->dst" in CIDR notation, interned like
// Prefix.String.
func (k PathKey) String() string {
	var buf [42]byte
	return intern.Bytes(k.AppendText(buf[:0]))
}

// Compare totally orders path keys (source prefix, then destination).
func (k PathKey) Compare(o PathKey) int {
	if c := k.Src.Compare(o.Src); c != 0 {
		return c
	}
	return k.Dst.Compare(o.Dst)
}

// Table performs longest-prefix matching over a set of origin
// prefixes, standing in for the BGP table a border router would
// consult. It is immutable after Build and safe for concurrent reads.
type Table struct {
	// byLen[l] holds the prefix values of length l in a sorted slice
	// for binary search.
	byLen [33][]uint32
	// prefixes retains originals for reverse lookup.
	byLenPrefix [33][]Prefix
	n           int
}

// NewTable builds a lookup table from the given prefixes.
func NewTable(prefixes []Prefix) *Table {
	t := &Table{}
	for _, p := range prefixes {
		if p.Bits > 32 {
			panic(fmt.Sprintf("packet: invalid prefix length %d", p.Bits))
		}
		v := p.uint32() & p.mask()
		t.byLen[p.Bits] = append(t.byLen[p.Bits], v)
		t.byLenPrefix[p.Bits] = append(t.byLenPrefix[p.Bits], Prefix{Addr: p.Addr, Bits: p.Bits})
		t.n++
	}
	for l := 0; l <= 32; l++ {
		vals, pfx := t.byLen[l], t.byLenPrefix[l]
		sort.Sort(&prefixSorter{vals, pfx})
	}
	return t
}

type prefixSorter struct {
	vals []uint32
	pfx  []Prefix
}

func (s *prefixSorter) Len() int           { return len(s.vals) }
func (s *prefixSorter) Less(i, j int) bool { return s.vals[i] < s.vals[j] }
func (s *prefixSorter) Swap(i, j int) {
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.pfx[i], s.pfx[j] = s.pfx[j], s.pfx[i]
}

// Len returns the number of prefixes in the table.
func (t *Table) Len() int { return t.n }

// Lookup returns the longest prefix containing address a.
func (t *Table) Lookup(a [4]byte) (Prefix, bool) {
	v := binary.BigEndian.Uint32(a[:])
	for l := 32; l >= 0; l-- {
		vals := t.byLen[l]
		if len(vals) == 0 {
			continue
		}
		var m uint32
		if l == 0 {
			m = 0
		} else {
			m = ^uint32(0) << (32 - l)
		}
		key := v & m
		i := sort.Search(len(vals), func(i int) bool { return vals[i] >= key })
		if i < len(vals) && vals[i] == key {
			return t.byLenPrefix[l][i], true
		}
	}
	return Prefix{}, false
}

// Classify maps a packet to its PathKey by looking up both addresses.
// ok is false when either address has no covering prefix.
func (t *Table) Classify(p *Packet) (PathKey, bool) {
	src, ok1 := t.Lookup(p.Src)
	dst, ok2 := t.Lookup(p.Dst)
	if !ok1 || !ok2 {
		return PathKey{}, false
	}
	return PathKey{Src: src, Dst: dst}, true
}
