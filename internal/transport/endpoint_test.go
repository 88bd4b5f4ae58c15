package transport

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contractEndpoint is an Endpoint with the drop counter both networks
// expose.
type contractEndpoint interface {
	Endpoint
	QueueDrops() int64
}

// contractNets builds two endpoints on each network whose inbound
// buffers hold queueLen datagrams.
var contractNets = []struct {
	name string
	open func(t *testing.T, queueLen int) (a, b contractEndpoint)
}{
	{"mem", func(t *testing.T, queueLen int) (contractEndpoint, contractEndpoint) {
		net := NewMemNetwork(MemNetworkConfig{Seed: 1, QueueLen: queueLen})
		t.Cleanup(net.Close)
		return net.Endpoint(), net.Endpoint()
	}},
	{"mux", func(t *testing.T, queueLen int) (contractEndpoint, contractEndpoint) {
		m, err := NewUDPMux(UDPMuxConfig{Sockets: 1, QueueLen: queueLen})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		a, err := m.Endpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Endpoint()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}},
}

// closing reports whether ep's Close has begun.
func closing(ep Endpoint) bool {
	switch e := ep.(type) {
	case *MemEndpoint:
		return e.closed.Load()
	case *MuxEndpoint:
		return e.closed.Load()
	}
	panic("closing: not a transport endpoint")
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndpointContract pins the receive side both networks share: the
// same buffering, draining, drop accounting and close barrier, whether
// datagrams arrive inline (mem) or on a shared socket reader (mux).
func TestEndpointContract(t *testing.T) {
	for _, nw := range contractNets {
		t.Run(nw.name, func(t *testing.T) {
			t.Run("buffered datagrams drain through the handler", func(t *testing.T) {
				a, b := nw.open(t, 16)
				want := []string{"one", "two", "three"}
				for _, m := range want {
					if err := a.Send(b.Addr(), []byte(m)); err != nil {
						t.Fatal(err)
					}
				}
				in := b.Recv()
				waitFor(t, "every datagram is buffered", func() bool { return len(in) == len(want) })
				var mu sync.Mutex
				var got []string
				b.SetHandler(func(p Packet) {
					mu.Lock()
					got = append(got, string(p.Data))
					mu.Unlock()
					p.Release()
				})
				mu.Lock()
				drained := slices.Clone(got)
				mu.Unlock()
				slices.Sort(drained)
				slices.Sort(want)
				if !slices.Equal(drained, want) {
					t.Fatalf("SetHandler drained %q, want %q", drained, want)
				}
				if err := a.Send(b.Addr(), []byte("after")); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the handler sees a later datagram", func() bool {
					mu.Lock()
					defer mu.Unlock()
					return len(got) == len(want)+1
				})
				select {
				case p := <-in:
					t.Fatalf("the Recv channel of a handler endpoint delivered %q", p.Data)
				default:
				}
			})

			t.Run("a handler sending to its own endpoint does not wedge Close", func(t *testing.T) {
				a, b := nw.open(t, 16)
				entered := make(chan struct{}, 1)
				release := make(chan struct{})
				var releaseOnce sync.Once
				// Released on every path, or a failing test would leave
				// the handler, and the mux's reader with it, parked.
				defer releaseOnce.Do(func() { close(release) })
				sent := make(chan error, 1)
				b.SetHandler(func(p Packet) {
					p.Release()
					select {
					case entered <- struct{}{}:
					default:
						return
					}
					<-release
					sent <- b.Send(b.Addr(), []byte("to myself"))
				})
				go func() { _ = a.Send(b.Addr(), []byte("request")) }()
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatal("the handler was never called")
				}
				closed := make(chan struct{})
				go func() {
					_ = b.Close()
					close(closed)
				}()
				waitFor(t, "Close has begun", func() bool { return closing(b) })
				select {
				case <-closed:
					t.Fatal("Close returned while the handler was running")
				default:
				}
				releaseOnce.Do(func() { close(release) })
				select {
				case err := <-sent:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("a closing endpoint's Send returned %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the handler's Send to its own endpoint wedged against Close")
				}
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close never returned")
				}
			})

			t.Run("no handler call after Close returns", func(t *testing.T) {
				const senders = 4
				a, b := nw.open(t, 16)
				var closeReturned, late atomic.Bool
				var calls, sends atomic.Int64
				b.SetHandler(func(p Packet) {
					if closeReturned.Load() {
						late.Store(true)
					}
					calls.Add(1)
					p.Release()
				})
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for range senders {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							// A closed destination is loss or an unknown
							// peer: either way the sender carries on.
							_ = a.Send(b.Addr(), []byte("x"))
							sends.Add(1)
						}
					}()
				}
				waitFor(t, "traffic is flowing", func() bool { return calls.Load() >= 100 })
				_ = b.Close()
				closeReturned.Store(true)
				after := sends.Load()
				waitFor(t, "more sends after Close", func() bool { return sends.Load() >= after+1000 })
				close(stop)
				wg.Wait()
				// A marker queued behind the senders' datagrams on the same
				// queue and socket is handled after every one of them was.
				// The flood may overflow a queue, so markers are sent until
				// one arrives.
				marker := make(chan struct{}, 1)
				a.SetHandler(func(p Packet) {
					p.Release()
					select {
					case marker <- struct{}{}:
					default:
					}
				})
				waitFor(t, "a marker arrives", func() bool {
					if err := a.Send(a.Addr(), []byte("marker")); err != nil {
						t.Fatal(err)
					}
					select {
					case <-marker:
						return true
					case <-time.After(10 * time.Millisecond):
						return false
					}
				})
				if late.Load() {
					t.Fatal("the handler ran after Close returned")
				}
			})

			t.Run("a full Recv buffer counts in QueueDrops", func(t *testing.T) {
				const queueLen, sent = 4, 20
				a, b := nw.open(t, queueLen)
				in := b.Recv()
				for range sent {
					if err := a.Send(b.Addr(), []byte("x")); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, "the overflow is counted", func() bool {
					return b.QueueDrops() == sent-queueLen
				})
				if len(in) != queueLen {
					t.Fatalf("the buffer holds %d datagrams, want %d", len(in), queueLen)
				}
			})

			t.Run("Recv after Close is closed", func(t *testing.T) {
				_, b := nw.open(t, 16)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				select {
				case _, ok := <-b.Recv():
					if ok {
						t.Fatal("Recv after Close delivered a datagram")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Recv after Close returned an open channel")
				}
			})
		})
	}
}
