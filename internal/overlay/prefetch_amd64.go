package overlay

// prefetchRow issues PREFETCHT0 for the four cache lines from p on: all
// of a row of c = 30 descriptors that starts on a line, all but its last
// few descriptors when it does not.
//
//go:noescape
func prefetchRow(p *uint64)
