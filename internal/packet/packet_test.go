package packet

import (
	"errors"
	"testing"
	"testing/quick"

	"vpm/internal/stats"
)

func samplePacket() Packet {
	return Packet{
		TOS:      0,
		TotalLen: 552,
		IPID:     0x1234,
		TTL:      64,
		Proto:    ProtoTCP,
		Src:      [4]byte{10, 0, 1, 2},
		Dst:      [4]byte{192, 168, 9, 8},
		SrcPort:  443,
		DstPort:  51234,
		Seq:      0xdeadbeef,
		Ack:      0x01020304,
		TCPFlags: 0x18,
		Window:   65535,
		SentAt:   12345,
	}
}

func TestSerializeParseRoundTripTCP(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize(nil)
	if len(wire) != IPv4HeaderLen+TCPHeaderLen {
		t.Fatalf("wire length %d", len(wire))
	}
	var q Packet
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	q.SentAt = p.SentAt // metadata, not on the wire
	if q != p {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestSerializeParseRoundTripUDP(t *testing.T) {
	p := samplePacket()
	p.Proto = ProtoUDP
	p.Seq, p.Ack, p.TCPFlags, p.Window = 0, 0, 0, 0
	wire := p.Serialize(nil)
	if len(wire) != IPv4HeaderLen+UDPHeaderLen {
		t.Fatalf("wire length %d", len(wire))
	}
	var q Packet
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	q.SentAt = p.SentAt
	if q != p {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestSerializeAppends(t *testing.T) {
	p := samplePacket()
	prefix := []byte{1, 2, 3}
	out := p.Serialize(prefix)
	if len(out) != 3+p.HeaderLen() {
		t.Fatalf("append semantics broken: len=%d", len(out))
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatal("prefix clobbered")
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize(nil)
	for _, n := range []int{0, 1, 19, 21, len(wire) - 1} {
		var q Packet
		if err := q.Parse(wire[:n]); err == nil {
			t.Errorf("Parse accepted %d-byte truncation", n)
		}
	}
}

func TestParseRejectsBadVersion(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize(nil)
	wire[0] = 0x65 // version 6
	var q Packet
	if err := q.Parse(wire); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseRejectsBadChecksum(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize(nil)
	wire[10] ^= 0xff
	var q Packet
	if err := q.Parse(wire); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestParseRejectsBadProto(t *testing.T) {
	p := samplePacket()
	p.Proto = 47 // GRE
	wire := p.Serialize(nil)
	var q Packet
	if err := q.Parse(wire); !errors.Is(err, ErrBadProto) {
		t.Errorf("err = %v, want ErrBadProto", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example header.
	h := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if cs := Checksum(h); cs != 0xb861 {
		t.Fatalf("checksum = %#04x, want 0xb861", cs)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Error("odd-length checksum padding wrong")
	}
}

func TestDigestInvariantToTTLAndECN(t *testing.T) {
	p := samplePacket()
	d := p.Digest(7)
	p.TTL = 3
	if p.Digest(7) != d {
		t.Error("digest changed with TTL")
	}
	p.TOS = 0x03 // ECN bits set
	if p.Digest(7) != d {
		t.Error("digest changed with ECN bits")
	}
	p.TOS = 0x04 // DSCP change IS significant
	if p.Digest(7) == d {
		t.Error("digest should change with DSCP")
	}
}

func TestDigestSensitivity(t *testing.T) {
	p := samplePacket()
	base := p.Digest(1)
	mods := []func(*Packet){
		func(q *Packet) { q.IPID++ },
		func(q *Packet) { q.Seq++ },
		func(q *Packet) { q.SrcPort++ },
		func(q *Packet) { q.DstPort++ },
		func(q *Packet) { q.Src[3]++ },
		func(q *Packet) { q.Dst[0]++ },
		func(q *Packet) { q.TotalLen++ },
	}
	for i, mod := range mods {
		q := samplePacket()
		mod(&q)
		if q.Digest(1) == base {
			t.Errorf("mod %d did not change digest", i)
		}
	}
}

func TestDigestMatchesAfterWireTrip(t *testing.T) {
	// A packet re-parsed from the wire at a later HOP (TTL
	// decremented, checksum rewritten) must produce the same digest.
	f := func(ipid uint16, seq uint32, sp, dp uint16) bool {
		p := samplePacket()
		p.IPID, p.Seq, p.SrcPort, p.DstPort = ipid, seq, sp, dp
		d0 := p.Digest(9)
		p.TTL--
		wire := p.Serialize(nil)
		var q Packet
		if err := q.Parse(wire); err != nil {
			return false
		}
		return q.Digest(9) == d0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestCollisionRate(t *testing.T) {
	// docs/PAPER-MAP.md's §2.3 Assumption 1 row (packet digests): with
	// 64-bit digests, collisions among 200k distinct packets should
	// effectively never occur.
	r := stats.NewRNG(5)
	seen := make(map[uint64]struct{}, 200000)
	p := samplePacket()
	for i := 0; i < 200000; i++ {
		p.IPID = uint16(r.Uint32())
		p.Seq = r.Uint32()
		p.SrcPort = uint16(r.Uint32())
		d := p.Digest(3)
		if _, dup := seen[d]; dup {
			// Could be an input repeat; tolerate only if inputs repeat.
			continue
		}
		seen[d] = struct{}{}
	}
	if len(seen) < 199000 {
		t.Errorf("unexpectedly many digest collisions: %d unique of 200000", len(seen))
	}
}

func TestPayloadAndWireLen(t *testing.T) {
	p := samplePacket()
	if p.PayloadLen() != int(p.TotalLen)-40 {
		t.Errorf("PayloadLen = %d", p.PayloadLen())
	}
	if p.WireLen() != int(p.TotalLen) {
		t.Errorf("WireLen = %d", p.WireLen())
	}
	p.TotalLen = 10 // pathological
	if p.PayloadLen() != 0 {
		t.Error("PayloadLen should clamp at 0")
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" {
		t.Error("proto names wrong")
	}
	if Proto(99).String() == "" {
		t.Error("unknown proto should still render")
	}
}

func TestPacketString(t *testing.T) {
	p := samplePacket()
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkSerialize(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.Serialize(buf[:0])
	}
}

func BenchmarkParse(b *testing.B) {
	p := samplePacket()
	wire := p.Serialize(nil)
	var q Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketDigest(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.IPID = uint16(i)
		_ = p.Digest(1)
	}
}
