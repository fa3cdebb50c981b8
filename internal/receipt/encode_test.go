package receipt

import "fmt"

// Decode parses one receipt from b, returning the receipt (exactly one
// of the two pointers is non-nil), the remaining bytes, and an error.
// Malformed input returns ErrCorrupt (match with errors.Is).
func Decode(b []byte) (*SampleReceipt, *AggReceipt, []byte, error) {
	if len(b) < 1 {
		return nil, nil, nil, ErrCorrupt
	}
	switch b[0] {
	case kindSample:
		s, _, rest, err := DecodeReceipts(b, 1, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		return &s[0], nil, rest, nil
	case kindAgg:
		_, a, rest, err := DecodeReceipts(b, 0, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		return nil, &a[0], rest, nil
	default:
		return nil, nil, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, b[0])
	}
}
