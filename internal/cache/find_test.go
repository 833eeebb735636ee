package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// byteFind is the plain byte-at-a-time walk find replaced: the lowest way
// holding signature sig and stored tag want, or -1.
func byteFind(sigs []uint8, meta []wayMeta, want uintptr, sig uint8) int {
	for i, s := range sigs {
		if s == sig && meta[i].tag == want {
			return i
		}
	}
	return -1
}

// adversarialSet fills one set's signatures and tags around target
// signature sig: the bytes the zero-byte test is most likely to get wrong
// (0x00, 0x01, 0x80, 0xff, sig±1, sig^1) and sig itself on ways holding
// other tags, with the line want at way at (none when at < 0). Invalid ways
// keep the zero tag Flush leaves, and every other tag is unique and not
// want, as in a live cache.
func adversarialSet(r *rand.Rand, sigs []uint8, meta []wayMeta, want uintptr, sig uint8, at int) {
	near := [...]uint8{0x00, 0x01, 0x80, 0xff, sig - 1, sig + 1, sig ^ 1, sig, sig, sig}
	for j := range sigs {
		s := near[r.IntN(len(near))]
		if r.IntN(8) == 0 {
			s = uint8(r.Uint32())
		}
		sigs[j] = s
		meta[j] = wayMeta{}
		if s != 0 {
			meta[j].tag = want + 1 + uintptr(j)
		}
	}
	if at >= 0 {
		sigs[at] = sig
		meta[at].tag = want
	}
}

// TestFindMatchesByteScan checks the word-at-a-time set scan against the
// byte walk on adversarial sets: every associativity up to 33 and 64 and
// 256, target signatures on both sides of the byte's high bit, neighbours
// that make the zero-byte test borrow, several ways sharing the target's
// signature, and the target on every way, the overlapping tail of a set
// that is not a multiple of 8 ways long included. It also pins sigWord's
// contract at every start way (so the tail reload's mask is checked
// directly: an unmasked or unshifted reload flags ways that are already
// checked or misplaces them) and firstInvalid against the first zero byte.
func TestFindMatchesByteScan(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const want = uintptr(0x1234)
	ways := []int{64, 256}
	for n := 1; n <= 33; n++ {
		ways = append(ways, n)
	}
	for _, n := range ways {
		sigs := make([]uint8, n)
		c := &Cache{ways: n, sigs: sigs, meta: make([]wayMeta, n)}
		for _, sig := range []uint8{0x01, 0x02, 0x7f, 0x80, 0x81, 0xa5, 0xfe, 0xff} {
			pat := lsb * uint64(sig)
			for trial := range 4 * (n + 1) {
				at := trial%(n+1) - 1 // every way, and absent
				adversarialSet(r, sigs, c.meta, want, sig, at)
				if got, exp := c.find(0, want, sig), byteFind(sigs, c.meta, want, sig); got != exp {
					t.Fatalf("%d ways, sig %#x, sigs % x: find = %d, byte walk = %d", n, sig, sigs, got, exp)
				}
				if z := slices.Index(sigs, 0); z >= 0 {
					if got := firstInvalid(sigs); got != z {
						t.Fatalf("%d ways, sigs % x: firstInvalid = %d, want %d", n, sigs, got, z)
					}
				}
				if n < 8 {
					continue
				}
				for i := range n {
					if err := checkSigWord(sigs, i, sig, sigWord(sigs, i, pat)); err != "" {
						t.Fatalf("%d ways, sig %#x, sigs % x: sigWord(%d): %s", n, sig, sigs, i, err)
					}
				}
			}
		}
	}
}

// checkSigWord reports how flags, sigWord's result for the ways of sigs
// from i, breaks its contract, or "" when it keeps it.
func checkSigWord(sigs []uint8, i int, sig uint8, flags uint64) string {
	k := min(8, len(sigs)-i)
	if flags&^(msb>>(64-8*uint(k))) != 0 {
		return "flags a bit that is not the high bit of ways i..min(i+8, len)-1"
	}
	for j := range k {
		if sigs[i+j] == sig && flags&(0x80<<(8*j)) == 0 {
			return "misses a way holding the signature"
		}
	}
	for j := range k {
		if flags&(0x80<<(8*j)) != 0 {
			if sigs[i+j] != sig {
				return "lowest flag is not a way holding the signature"
			}
			break
		}
	}
	return ""
}
