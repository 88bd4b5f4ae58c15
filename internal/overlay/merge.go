package overlay

import "unsafe"

// A merge workspace is one []uint64, laid out as
//
//	work[0]                   header: flagsClean<<32 | span
//	work[1 : 1+span/8]        one flag byte per key index in [0, span)
//	next limit words          the merge's output
//	rest                      staging: an absorb's remote half
//	                          (Membership.stage) or an exchange's copy of
//	                          one view with the fresh self-descriptors
//
// A key's index is key ^ mask, with the mask the caller's: 0 for a
// table, whose keys are node ids, and the owner's own key for a cache,
// whose keys the live agent salts per node (agent's viewKey) — the XOR
// takes the shared salt off again, leaving the small book ids.
//
// Between merges every flag is zero: a merge sets the flag of each key it
// emits and clears exactly those flags before it returns. The header is
// what lets a caller's buffer be trusted: a fresh, poisoned or otherwise
// foreign buffer has no clean header, and workspace re-zeroes its flags.
const (
	flagsClean = 0x6e637374 // flags zero, span as recorded
	flagsGrow  = 0x6e637375 // a merge met indices past the span: re-zero at the recorded span
)

// maxLearnedSpan bounds the span a buffer learns from the keys it merges
// (flagsGrow): 64 KiB of flags, far more than the book ids of the few
// thousand peers a process meets. A key whose index lies past it is
// deduplicated by the kernel's scan instead of costing a flag array as
// large as the index; a table asks for its N explicitly.
const maxLearnedSpan = 1 << 16

// workspace returns scratch resized for a merge to limit survivors with
// one flag per key index in [0, keys) — N for a table — plus extra
// staging words at the end. The flags never shrink: a buffer lent to
// caches of different key ranges keeps the largest, and one that met
// larger indices (flagsGrow) widens to them, so a cache's flags come to
// cover the keys it has merged. It allocates only when the buffer is too
// small, and clears the flags only when the header does not vouch for
// them.
func workspace(scratch []uint64, limit, keys, extra int) []uint64 {
	span, zero := keys, false
	if cap(scratch) > 0 {
		switch h := scratch[:1][0]; uint32(h >> 32) {
		case flagsClean:
			if s := int(uint32(h)); s >= span {
				span, zero = s, true
			}
		case flagsGrow:
			span = max(span, int(uint32(h)))
		}
	}
	span = (span + 7) &^ 7
	need := 1 + span/8 + limit + extra
	if cap(scratch) < need {
		scratch, zero = make([]uint64, need), true
	}
	scratch = scratch[:need]
	if !zero {
		clear(scratch[1 : 1+span/8])
	}
	scratch[0] = flagsClean<<32 | uint64(span)
	return scratch
}

// mergeDistinct is the one NEWSCAST merge: a linear merge of two packed
// lists that keeps the first occurrence of each key — in ascending packed
// order that is the key's freshest descriptor — and stops at limit
// survivors, which it returns in ascending order in the workspace's
// output words. Which list holds the smaller head is a coin toss, so the
// comparison selects it arithmetically instead of by a branch. A key
// whose index key^mask lies in the flag span is deduplicated by its flag
// byte; any other by a scan of the survivors so far, after which the
// header asks the next workspace call to widen the span (up to
// maxLearnedSpan).
//
// Precondition: work comes from workspace with at least limit output
// words, and a and b are each ascending (duplicates allowed) and do not
// alias its header, flags or output.
func mergeDistinct(work []uint64, limit int, mask uint32, a, b []uint64) []uint64 {
	span := uint32(work[0])
	// The flags are the bytes of the words before out, whose bounds
	// check therefore covers them too.
	out := work[1+span/8 : 1+int(span/8)+limit]
	flags := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(work[1:]))), span)
	i, j, w, grow := 0, 0, 0, 0
	for w < len(out) && i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		t := b2i(x <= y)
		e := y ^ ((x ^ y) & -uint64(t))
		i += t
		j += 1 - t
		if k := int(uint32(e) ^ mask); k < len(flags) {
			// Nor is a repeat branched on: it fills the next slot but
			// does not claim it.
			out[w] = e
			w += int(1 - flags[k])
			flags[k] = 1
		} else {
			w, grow = emitUnflagged(out, w, e, k, grow)
		}
	}
	rest := a[i:]
	if i == len(a) {
		rest = b[j:]
	}
	for _, e := range rest {
		if w == len(out) {
			break
		}
		if k := int(uint32(e) ^ mask); k < len(flags) {
			out[w] = e
			w += int(1 - flags[k])
			flags[k] = 1
		} else {
			w, grow = emitUnflagged(out, w, e, k, grow)
		}
	}
	for _, e := range out[:w] {
		if k := int(uint32(e) ^ mask); k < len(flags) {
			flags[k] = 0
		}
	}
	if grow > 0 {
		work[0] = flagsGrow<<32 | uint64(grow)
	}
	return out[:w]
}

// emitUnflagged is mergeDistinct's step for a key with no flag, at index
// k: it is kept unless a survivor so far has it, and grow learns k.
func emitUnflagged(out []uint64, w int, e uint64, k, grow int) (int, int) {
	for _, x := range out[:w] {
		if uint32(x) == uint32(e) {
			return w, grow
		}
	}
	if k < maxLearnedSpan {
		grow = max(grow, k+1)
	}
	out[w] = e
	return w + 1, grow
}

// b2i compiles to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
