package main

import (
	"log/slog"
	"slices"
	"strings"
	"testing"

	"antientropy"
)

func TestParseAddrList(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ", []string{"a:1", "b:2"}},
		{"a:1,,b:2,", []string{"a:1", "b:2"}},
		{"", nil},
		{" , ", nil},
	}
	for _, tc := range tests {
		got := antientropy.ParseAddrList(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ParseAddrList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseAddrList(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestMuxAddrs: a bare "host:port" contact is completed to the "#0" every
// aggnode listens on; one with an endpoint id is kept as it is.
func TestMuxAddrs(t *testing.T) {
	got := muxAddrs(" 127.0.0.1:7000, 127.0.0.1:7001#0 ,h:1#12,")
	if want := []string{"127.0.0.1:7000#0", "127.0.0.1:7001#0", "h:1#12"}; !slices.Equal(got, want) {
		t.Fatalf("muxAddrs = %v, want %v", got, want)
	}
	if got := muxAddrs(""); len(got) != 0 {
		t.Fatalf("muxAddrs(\"\") = %v, want none", got)
	}
}

func TestReadValues(t *testing.T) {
	var got []float64
	input := "10.5\n\nnot-a-number\n  42 \n"
	readValues(strings.NewReader(input), func(v float64) { got = append(got, v) }, slog.New(slog.DiscardHandler))
	if len(got) != 2 || got[0] != 10.5 || got[1] != 42 {
		t.Fatalf("applied values = %v, want [10.5 42] (blank and invalid lines skipped)", got)
	}
}
