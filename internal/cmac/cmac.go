// Package cmac implements the AES-CMAC message authentication code defined
// in RFC 4493, using only the standard library's crypto/aes.
//
// NetFence protects its congestion policing feedback with a MAC computed by
// symmetric-key hardware on routers (the paper cites line-rate AES support).
// CMAC is the standard way to turn AES into a MAC and is what an actual
// deployment would use; the 4-byte truncation applied by the NetFence header
// is performed by callers, not here.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// Key is a 128-bit AES key.
type Key = [16]byte

// CMAC computes AES-CMAC tags under a fixed key. It precomputes the two
// subkeys K1 and K2 at construction, so per-message cost is one AES pass.
//
// A CMAC value is NOT safe for concurrent use: Sum chains the cipher
// through scratch blocks held on the struct, because stack scratch
// passed to the cipher.Block interface escapes to the heap and the
// per-packet MAC was the simulator's dominant allocation. Every engine
// shard builds its own key material, so instances are single-goroutine
// by construction; callers that share one across goroutines must
// serialize.
type CMAC struct {
	block  cipher.Block
	k1, k2 [BlockSize]byte
	// x, y are Sum's CBC chaining state and XOR scratch. Struct-resident
	// so Sum performs zero heap allocations per call.
	x, y [BlockSize]byte
}

// New returns a CMAC for the given 128-bit key.
func New(key Key) *CMAC {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the Key
		// type makes impossible.
		panic("cmac: " + err.Error())
	}
	c := &CMAC{block: block}
	var l [BlockSize]byte
	block.Encrypt(l[:], l[:])
	shiftLeft(&c.k1, &l)
	if l[0]&0x80 != 0 {
		c.k1[BlockSize-1] ^= 0x87
	}
	shiftLeft(&c.k2, &c.k1)
	if c.k1[0]&0x80 != 0 {
		c.k2[BlockSize-1] ^= 0x87
	}
	return c
}

// shiftLeft sets dst to src << 1.
func shiftLeft(dst, src *[BlockSize]byte) {
	var carry byte
	for i := BlockSize - 1; i >= 0; i-- {
		dst[i] = src[i]<<1 | carry
		carry = src[i] >> 7
	}
}

// Sum computes the 16-byte AES-CMAC tag of msg.
func (c *CMAC) Sum(msg []byte) [BlockSize]byte {
	c.x = [BlockSize]byte{}
	n := len(msg)
	// Process all complete blocks except the last.
	for n > BlockSize {
		for i := 0; i < BlockSize; i++ {
			c.y[i] = c.x[i] ^ msg[i]
		}
		c.block.Encrypt(c.x[:], c.y[:])
		msg = msg[BlockSize:]
		n -= BlockSize
	}
	var last [BlockSize]byte
	if n == BlockSize {
		for i := 0; i < BlockSize; i++ {
			last[i] = msg[i] ^ c.k1[i]
		}
	} else {
		copy(last[:], msg)
		last[n] = 0x80
		for i := 0; i < BlockSize; i++ {
			last[i] ^= c.k2[i]
		}
	}
	for i := 0; i < BlockSize; i++ {
		c.y[i] = c.x[i] ^ last[i]
	}
	c.block.Encrypt(c.x[:], c.y[:])
	return c.x
}

// Sum32 computes the CMAC tag truncated to its first 4 bytes, the width of
// the MAC field in the NetFence header (Figure 6 of the paper).
func (c *CMAC) Sum32(msg []byte) [4]byte {
	full := c.Sum(msg)
	return [4]byte{full[0], full[1], full[2], full[3]}
}

// Verify reports whether tag is the CMAC of msg, in constant time.
func (c *CMAC) Verify(msg []byte, tag []byte) bool {
	full := c.Sum(msg)
	if len(tag) > BlockSize {
		return false
	}
	return subtle.ConstantTimeCompare(full[:len(tag)], tag) == 1
}

// Sum is a convenience helper computing a one-shot AES-CMAC.
func Sum(key Key, msg []byte) [BlockSize]byte { return New(key).Sum(msg) }
