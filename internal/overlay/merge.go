package overlay

import "unsafe"

// A merge workspace is one []uint64, laid out as
//
//	work[0]                   header: flagsClean<<32 | span
//	work[1 : 1+span/8]        one flag byte per key index in [0, span)
//	next limit words          the merge's output
//	rest                      staging (Membership.stage)
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

// mergeDistinct is the one NEWSCAST merge: a linear three-way merge of
// packed lists that keeps the first occurrence of each key — in ascending
// packed order that is the key's freshest descriptor — and stops at limit
// survivors. It returns them in ascending order in the workspace's
// output words.
//
// A key whose index key^mask lies in the flag span is deduplicated by its
// flag byte; any other by a scan of the survivors so far, after which the
// header asks the next workspace call to widen the span (up to
// maxLearnedSpan).
//
// Precondition: work comes from workspace with at least limit output
// words, and a, b and c are each ascending (duplicates allowed) and do
// not alias its header, flags or output.
func mergeDistinct(work []uint64, limit int, mask uint32, a, b, c []uint64) []uint64 {
	span := uint32(work[0])
	// The flags are the bytes of the words before out, whose bounds
	// check therefore covers them too.
	out := work[1+span/8 : 1+int(span/8)+limit]
	flags := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(work[1:]))), span)
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
	w, grow := 0, 0
merge:
	for w < len(out) {
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
			break merge
		}
		k := int(uint32(e) ^ mask)
		if k < len(flags) {
			// Whether a key repeats is unpredictable, so the flag is not
			// branched on: a repeat fills the next slot but does not
			// claim it.
			out[w] = e
			w += int(1 - flags[k])
			flags[k] = 1
			continue
		}
		for _, x := range out[:w] {
			if uint32(x) == uint32(e) {
				continue merge
			}
		}
		if k < maxLearnedSpan {
			grow = max(grow, k+1)
		}
		out[w] = e
		w++
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
