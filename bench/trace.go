package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/transport"
)

// spanRec is one recorded span: a call across a layer boundary, timed by
// the benchmark from outside the layer. Spans of one exchange (or one
// HTTP request) share Key; Parent is the span that caused this one.
type spanRec struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// span is an open span.
type span struct {
	log *spanLog
	rec spanRec
}

func (l *spanLog) begin(name, key string, parent uint64) span {
	if l == nil {
		return span{}
	}
	return span{log: l, rec: spanRec{
		ID: l.next.Add(1), Parent: parent, Name: name, Key: key,
		StartNS: int64(time.Since(l.t0)),
	}}
}

func (s span) end() {
	if s.log == nil {
		return
	}
	s.rec.EndNS = int64(time.Since(s.log.t0))
	s.log.mu.Lock()
	s.log.spans = append(s.log.spans, s.rec)
	s.log.mu.Unlock()
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // Σ duration
	Self  time.Duration // Σ (duration − time covered by child spans)
}

// summarise computes per-name totals and self times. Children never
// overlap each other here (a delivery callback sends sequentially), so
// the covered time is the plain sum of the child durations.
func (l *spanLog) summarise() map[string]*spanStat {
	out := map[string]*spanStat{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range l.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - child[s.ID])
	}
	return out
}

// meanSelfMicros is the mean self time of the spans called name, in µs.
func meanSelfMicros(stats map[string]*spanStat, name string) float64 {
	st := stats[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.Self.Nanoseconds()) / 1e3 / float64(st.Count)
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEndpoint decorates a node's transport attachment: a "deliver"
// span around every inbound datagram's handling and a child "send" span
// around every datagram that handling emits, keyed by the peer pair
// (the exchange's shared identifier). Sends made outside a delivery —
// the tick's request — are root "send" spans. It also counts the bytes
// sent, so bytes per exchange is measured at the same boundary.
//
// It always offers handler-mode delivery, which is what lets the
// benchmark time the node's delivery callback from outside: a
// handler-capable transport (UDPMux) has its callback wrapped; for a
// channel transport (MemEndpoint) the decorator runs the receive
// goroutine the node would otherwise run itself, one per node, doing
// exactly what agent's own receive loop does.
type tracedEndpoint struct {
	transport.Endpoint
	log       *spanLog
	bytesSent *atomic.Int64
	// current is the delivery span being handled (0 = none). Concurrent
	// deliveries to one node on several mux readers can blur which of
	// the two a send is attributed to, never the totals.
	current atomic.Uint64
	pump    sync.WaitGroup
}

func traceEndpoint(ep transport.Endpoint, log *spanLog, bytesSent *atomic.Int64) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: ep, log: log, bytesSent: bytesSent}
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

func (e *tracedEndpoint) Send(to string, data []byte) error {
	sp := e.log.begin("send", pairKey(e.Addr(), to), e.current.Load())
	err := e.Endpoint.Send(to, data)
	sp.end()
	e.bytesSent.Add(int64(len(data)))
	return err
}

func (e *tracedEndpoint) SetHandler(fn func(transport.Packet)) {
	deliver := func(p transport.Packet) {
		sp := e.log.begin("deliver", pairKey(e.Addr(), p.From), 0)
		e.current.Store(sp.rec.ID)
		fn(p)
		e.current.Store(0)
		sp.end()
	}
	if he, ok := e.Endpoint.(transport.HandlerEndpoint); ok {
		he.SetHandler(deliver)
		return
	}
	e.pump.Add(1)
	go func() {
		defer e.pump.Done()
		for p := range e.Endpoint.Recv() {
			deliver(p)
		}
	}()
}

// Close closes the wrapped endpoint, which closes its receive channel,
// and waits for the receive goroutine to drain it.
func (e *tracedEndpoint) Close() error {
	err := e.Endpoint.Close()
	e.pump.Wait()
	return err
}

// traceHandler records one server-side span per HTTP request.
func traceHandler(h http.Handler, log *spanLog) http.Handler {
	if log == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := log.begin("http "+r.Method, r.URL.Path, 0)
		h.ServeHTTP(w, r)
		sp.end()
	})
}
