package passport

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netfence/internal/packet"
)

func testRegistry() *Registry {
	rng := rand.New(rand.NewPCG(7, 7))
	return NewRegistry(rng, []packet.ASID{1, 2, 3, 4})
}

func TestKeySymmetry(t *testing.T) {
	r := testRegistry()
	if r.Key(1, 2) != r.Key(2, 1) {
		t.Fatal("pairwise key not symmetric")
	}
	if r.Key(1, 1) == nil {
		t.Fatal("self-pair key missing")
	}
	if r.Key(1, 9) != nil {
		t.Fatal("unknown AS has a key")
	}
}

func TestStampVerifyPath(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, DstAS: 4, Size: 1500}
	path := []packet.ASID{2, 3, 4}
	r.Stamp(p, path)
	for _, as := range path {
		if !r.Verify(p, as) {
			t.Fatalf("verification failed at AS %d", as)
		}
	}
	// Re-verifying inside an already-entered AS is free; an AS that was
	// never on the path fails.
	if !r.Verify(p, 4) {
		t.Fatal("re-verification at the last AS failed")
	}
	if r.Verify(p, 9) {
		t.Fatal("off-path AS verified")
	}
}

func TestSpoofedSourceASFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 1500}
	r.Stamp(p, []packet.ASID{2, 3})
	p.SrcAS = 3 // attacker claims a different origin AS
	if r.Verify(p, 2) {
		t.Fatal("spoofed source AS verified")
	}
}

func TestTamperedPacketFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 1500}
	r.Stamp(p, []packet.ASID{2})
	p.Size = 9000 // on-path size inflation (§5.2.2)
	if r.Verify(p, 2) {
		t.Fatal("size-inflated packet verified")
	}
}

func TestNoTrailerFails(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	if r.Verify(p, 2) {
		t.Fatal("packet without trailer verified")
	}
}

func TestVerifySkipInvalidatesEarlierEntries(t *testing.T) {
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	r.Stamp(p, []packet.ASID{2, 3})
	// Verifying at AS 3 first consumes past AS 2's entry...
	if !r.Verify(p, 3) {
		t.Fatal("AS 3 verification failed")
	}
	// ...so a later AS 2 verification fails (path order enforced).
	if r.Verify(p, 2) {
		t.Fatal("skipped entry still verified")
	}
}

func TestVerifyTwiceAtSameAS(t *testing.T) {
	// A second router inside an already-verified AS re-verifies for free:
	// a transit AS checks Passport at ingress only.
	r := testRegistry()
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: 1, Size: 100}
	r.Stamp(p, []packet.ASID{2, 3})
	if !r.Verify(p, 2) || !r.Verify(p, 2) {
		t.Fatal("re-verification at the same AS failed")
	}
	if !r.Verify(p, 3) {
		t.Fatal("downstream AS failed after re-verification")
	}
}

// Property: for random paths over the registered ASes, stamped packets
// verify hop by hop; mutating the source always breaks every hop.
func TestStampVerifyProperty(t *testing.T) {
	r := testRegistry()
	all := []packet.ASID{2, 3, 4}
	prop := func(src, dst int32, size int32, pathBits uint8, spoof bool) bool {
		var path []packet.ASID
		for i, as := range all {
			if pathBits&(1<<i) != 0 {
				path = append(path, as)
			}
		}
		if len(path) == 0 {
			return true
		}
		p := &packet.Packet{Src: packet.NodeID(src), Dst: packet.NodeID(dst), SrcAS: 1, Size: size}
		r.Stamp(p, path)
		if spoof {
			p.Src++
		}
		for _, as := range path {
			if r.Verify(p, as) == spoof {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
