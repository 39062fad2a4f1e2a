// Package hmix provides the small mixing hashes behind the incremental
// cache keys (function fingerprints, entry keys, the analysis salt). The
// finalizer is splitmix64's, which avalanche-mixes every input bit into
// every output bit.
package hmix

const seed = 0x9e3779b97f4a7c15

// fin is the splitmix64 finalizer.
func fin(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func step(h, p uint64) uint64 { return fin(h ^ (p + seed + h<<6 + h>>2)) }

// Add mixes ps, in order, into the running hash h: a chain of steps that,
// unlike MixN, does not restart from the seed for each call.
func Add(h uint64, ps ...uint64) uint64 {
	for _, p := range ps {
		h = step(h, p)
	}
	return h
}

// Mix2 hashes an ordered pair.
func Mix2(a, b uint64) uint64 { return step(step(seed, a), b) }

// Mix3 hashes an ordered triple.
func Mix3(a, b, c uint64) uint64 { return step(Mix2(a, b), c) }

// Mix4 hashes an ordered quadruple.
func Mix4(a, b, c, d uint64) uint64 { return step(Mix3(a, b, c), d) }

// Str hashes a string with FNV-1a (64-bit).
func Str(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
