package dissem

import "fmt"

// DecodeBundle parses a canonical bundle encoding. Malformed input
// returns an error wrapping ErrCorruptBundle, never a panic
// (FuzzDecodeBundle), and never allocates more than a small multiple
// of len(data): receipt counts the remaining bytes could not hold are
// refused before anything is allocated for them.
func DecodeBundle(data []byte) (*Bundle, error) {
	b, rest, err := decodeNext(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptBundle, len(rest))
	}
	return b, nil
}

// Encode produces the canonical binary form — a one-bundle payload —
// in one exactly-sized allocation.
func (b *Bundle) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, b.WireSize()))
}
