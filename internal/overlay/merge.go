package overlay

import "math/bits"

// setSlots is the size of the key set a merge to limit survivors uses: a
// power of two of at least 4·limit slots (128 for the paper's c = 30), so
// linear probing stays near one probe per lookup.
func setSlots(limit int) int {
	return 1 << bits.Len(uint(4*limit-1))
}

// workspace returns scratch resized to hold a merge to limit survivors —
// the output, then the key set — plus extra staging words behind them.
// It allocates only when the buffer is too small, i.e. on first use.
func workspace(scratch []uint64, limit, extra int) []uint64 {
	need := limit + setSlots(limit) + extra
	if cap(scratch) < need {
		return make([]uint64, need)
	}
	return scratch[:need]
}

// mergeDistinct is the one NEWSCAST merge: a linear three-way merge of
// packed lists that keeps the first occurrence of each key — in ascending
// packed order that is the key's freshest descriptor — and stops at limit
// survivors. It returns them in ascending order in work[:limit].
//
// Precondition: a, b and c are each ascending (duplicates allowed), and
// none aliases the first limit+setSlots(limit) words of work, which hold
// the output and an open-addressed set of the keys seen so far.
func mergeDistinct(work []uint64, limit int, a, b, c []uint64) []uint64 {
	out := work[:limit]
	set := work[limit : limit+setSlots(limit)]
	clear(set)
	mask := uint32(len(set) - 1)
	shift := 32 - bits.TrailingZeros32(uint32(len(set)))
	// Heads of the three lists; an exhausted list reads as the largest
	// packed value, which a real entry can only equal at the very end.
	const exhausted = ^uint64(0)
	head := func(l []uint64) uint64 {
		if len(l) > 0 {
			return l[0]
		}
		return exhausted
	}
	ha, hb, hc := head(a), head(b), head(c)
	w := 0
	for w < limit {
		var e uint64
		switch {
		case ha <= hb && ha <= hc && len(a) > 0:
			e, a = ha, a[1:]
			ha = head(a)
		case hb <= hc && len(b) > 0:
			e, b = hb, b[1:]
			hb = head(b)
		case len(c) > 0:
			e, c = hc, c[1:]
			hc = head(c)
		default:
			return out[:w]
		}
		// A slot holds key|1<<32, so 0 is "empty" for every int32 key.
		tag := uint64(uint32(e)) | 1<<32
		for slot := uint32(e) * 0x9E3779B1 >> shift; ; slot++ {
			s := &set[slot&mask]
			if *s == 0 {
				*s = tag
				out[w] = e
				w++
				break
			}
			if *s == tag {
				break
			}
		}
	}
	return out
}
