package feedback

import (
	"math/rand/v2"

	"netfence/internal/cmac"
)

// KeyRing holds an access router's time-varying secret Ka (§3.2). The
// router stamps with the current key and validates against both the
// current and the previous key, so feedback stamped just before a rotation
// remains valid for the freshness window w.
type KeyRing struct {
	current *cmac.CMAC
	prev    *cmac.CMAC

	// Material, when set, is a dedicated stream the actual key bytes are
	// drawn from; Rotate still burns the same number of draws from its
	// rng argument. Sharded runs use this split: every shard replica of
	// one logical router rotates on its own engine's stream (keeping
	// those streams position-aligned with the single-engine run for the
	// value-sensitive consumers sharing them, like RED), while the key
	// bytes come from a per-router stream identical on every replica —
	// so a bottleneck shard validates exactly what a source shard
	// stamped. Key bytes never influence behavior beyond MAC equality,
	// so results are unaffected by which stream supplies them.
	Material *rand.Rand
}

// NewKeyRing creates a key ring with a random initial key drawn from rng.
func NewKeyRing(rng *rand.Rand) *KeyRing {
	r := &KeyRing{}
	r.current = cmac.New(randomKey(rng))
	r.prev = r.current
	return r
}

// NewKeyRingFromKey creates a key ring with a fixed initial key, for tests
// and benchmarks that need reproducible MACs.
func NewKeyRingFromKey(key cmac.Key) *KeyRing {
	c := cmac.New(key)
	return &KeyRing{current: c, prev: c}
}

func randomKey(rng *rand.Rand) cmac.Key {
	var k cmac.Key
	for i := 0; i < 16; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			k[i+j] = byte(v >> (8 * j))
		}
	}
	return k
}

// Rotate replaces the current key with a fresh one, keeping the old key
// for validation. The caller drives rotation on a timer whose period must
// exceed the feedback expiration time w. With Material set, rng is
// drawn from (and discarded) to keep its stream position aligned while
// the key bytes come from the Material stream.
func (r *KeyRing) Rotate(rng *rand.Rand) {
	key := randomKey(rng)
	if r.Material != nil {
		key = randomKey(r.Material)
	}
	r.prev = r.current
	r.current = cmac.New(key)
}

// Current returns the stamping key.
func (r *KeyRing) Current() *cmac.CMAC { return r.current }

// Keys returns the current and previous validation keys; prev equals
// current before the first rotation. Hot paths iterate the pair directly
// instead of going through Check, whose predicate closure would allocate
// per packet.
func (r *KeyRing) Keys() (current, prev *cmac.CMAC) { return r.current, r.prev }

// Check runs a validation predicate against the current key, then the
// previous key, accepting if either succeeds — the rotation grace period.
func (r *KeyRing) Check(check func(*cmac.CMAC) bool) bool {
	if check(r.current) {
		return true
	}
	if r.prev != r.current && check(r.prev) {
		return true
	}
	return false
}
