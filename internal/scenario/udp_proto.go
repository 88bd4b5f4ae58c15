package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"antientropy/internal/agent"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
)

// A fleet executor runs a scenario on real agent nodes hosted by workers,
// each owning a contiguous-by-modulo slice of the node slots, and one
// supervisor that interprets the script and coordinates them with the
// conversation below. For the udp executor the workers are forked
// processes on UDP sockets and the conversation travels as line-delimited
// JSON over their stdin/stdout pipes; for the live executor the one worker
// is a value in the supervisor's process on the in-memory network and each
// command is a direct call (see workerHandle).
//
//	supervisor → worker            worker → supervisor
//	--------------------           --------------------
//	init  (scenario, slot list)    ready   (slot → bound address)
//	start (anchor, bootstrap)      started
//	cycle (barrier + events)       ack     (slot → joiner address)
//	sample                         metrics (partial aggregates)
//	shutdown                       bye
//
// Every exchange is strictly request/response per worker, so the
// supervisor's cycle loop doubles as the barrier: no worker applies cycle
// c+1 events before every worker has acknowledged cycle c. A worker that
// hits an unrecoverable error replies with op "fatal" and stops; the
// supervisor then tears the whole fleet down.

// Control-channel ops.
const (
	udpOpInit     = "init"
	udpOpReady    = "ready"
	udpOpStart    = "start"
	udpOpStarted  = "started"
	udpOpCycle    = "cycle"
	udpOpAck      = "ack"
	udpOpSample   = "sample"
	udpOpMetrics  = "metrics"
	udpOpShutdown = "shutdown"
	udpOpBye      = "bye"
	udpOpFatal    = "fatal"
)

// udpJoin commands one slot to come up as a brand-new identity performing
// the §4.2 join against the given seed addresses. Group places the new
// endpoint into an active partition component (-1: none).
type udpJoin struct {
	Slot  int      `json:"slot"`
	Seeds []string `json:"seeds,omitempty"`
	Group int      `json:"group"`
	// Sybil marks an attacker join: the controlling adversary's index
	// plus one (0 = honest joiner). Sybil slot assignment is runtime
	// state only the supervisor knows, so it rides the join command;
	// the worker's own schedule covers the static Byzantine picks.
	Sybil int `json:"sybil,omitempty"`
}

// udpContacts hands one slot out-of-band contact addresses (the post-heal
// rendezvous refresh; see bridgeContacts).
type udpContacts struct {
	Slot  int      `json:"slot"`
	Addrs []string `json:"addrs"`
}

// udpMsg is one line of the control channel. One flat struct covers every
// op; which fields are meaningful depends on Op.
type udpMsg struct {
	Op string `json:"op"`

	// init: the full scenario, this worker's index and slot assignment,
	// and the fleet-wide tuning the supervisor resolved.
	Scenario   *Scenario `json:"scenario,omitempty"`
	Worker     int       `json:"worker,omitempty"`
	Slots      []int     `json:"slots,omitempty"`
	CacheSize  int       `json:"cacheSize,omitempty"`
	CycleLenUS int64     `json:"cycleLenUs,omitempty"`
	QueueLen   int       `json:"queueLen,omitempty"`
	// TraceCap > 0 makes the worker keep a bounded exchange trace ring
	// of that capacity, drained by every metrics and bye reply.
	TraceCap int `json:"traceCap,omitempty"`

	// start: the shared schedule anchor and the founding address book.
	AnchorUnixNano int64    `json:"anchorUnixNano,omitempty"`
	Bootstrap      []string `json:"bootstrap,omitempty"`

	// cycle: the barrier tick plus this cycle's scripted interventions.
	// Loss is always present (the effective rate for the cycle); Groups
	// non-nil installs a partition, Heal clears it, Assign patches single
	// addresses in (joiners created while a partition is active). The
	// delay bounds are sent only to a worker whose network can inject
	// latency.
	Cycle      int            `json:"cycle"`
	Loss       float64        `json:"loss"`
	DelayMinMs int            `json:"delayMinMs,omitempty"`
	DelayMaxMs int            `json:"delayMaxMs,omitempty"`
	Groups     map[string]int `json:"groups,omitempty"`
	Assign     map[string]int `json:"assign,omitempty"`
	Heal       bool           `json:"heal,omitempty"`
	Crash      []int          `json:"crash,omitempty"`
	Joins      []udpJoin      `json:"joins,omitempty"`
	Contacts   []udpContacts  `json:"contacts,omitempty"`

	// ready / ack: slot → freshly bound endpoint address.
	Addrs map[int]string `json:"addrs,omitempty"`

	// metrics: this worker's partial aggregates for the sampled cycle.
	// Est summarizes its honest participants' estimates as (n, mean,
	// M2 = Σ(x − mean)², min, max), which the supervisor combines with
	// Moments.Merge: raw sums (n, Σx, Σx²) cancel to a spread of zero once
	// the fleet has converged to a spread far below its mean.
	Alive         int           `json:"alive,omitempty"`
	Participating int           `json:"participating,omitempty"`
	Est           stats.Moments `json:"est,omitzero"`
	QueueDrops    int64         `json:"queueDrops,omitempty"`
	FilterDrops   int64         `json:"filterDrops,omitempty"`
	// AgentTotals carries the worker's cumulative protocol counters
	// (live nodes plus crash-retired ones) and RTTHist its exchange
	// round-trip histogram snapshot, so the supervisor can export one
	// aggregated fleet on its /metrics endpoint.
	AgentTotals *agent.Metrics    `json:"agentTotals,omitempty"`
	RTTHist     *obs.HistSnapshot `json:"rttHist,omitempty"`
	// TransportQueueDepth is the worker network's queue high watermark
	// and BatchHist its datagrams-per-operation histogram.
	TransportQueueDepth int64             `json:"transportQueueDepth,omitempty"`
	BatchHist           *obs.HistSnapshot `json:"batchHist,omitempty"`
	// Trace is the worker's exchange-trace increment since its previous
	// report (metrics and bye replies): the supervisor merges the
	// batches of all workers into one fleet-wide ring, where events
	// sharing an exchange identifier stitch into cross-process spans.
	Trace []obs.TraceEvent `json:"trace,omitempty"`

	// fatal: the error that killed the sender.
	Err string `json:"err,omitempty"`
}

// udpConn frames udpMsg lines over a reader/writer pair. Writes are
// mutex-serialized; reads are single-consumer.
type udpConn struct {
	wmu sync.Mutex
	w   io.Writer
	sc  *bufio.Scanner
}

// udpMaxLine bounds one control line. The largest messages carry one
// address (~21 bytes) per node slot — a 10⁶-slot fleet stays under 32 MB.
const udpMaxLine = 32 << 20

func newUDPConn(r io.Reader, w io.Writer) *udpConn {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), udpMaxLine)
	return &udpConn{w: w, sc: sc}
}

// send writes one message as a JSON line.
func (c *udpConn) send(m udpMsg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("scenario: encoding %s: %w", m.Op, err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("scenario: writing %s: %w", m.Op, err)
	}
	return nil
}

// recv reads the next message, skipping blank lines.
func (c *udpConn) recv() (udpMsg, error) {
	for c.sc.Scan() {
		line := c.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m udpMsg
		if err := json.Unmarshal(line, &m); err != nil {
			return udpMsg{}, fmt.Errorf("scenario: decoding control line: %w", err)
		}
		return m, nil
	}
	if err := c.sc.Err(); err != nil {
		return udpMsg{}, fmt.Errorf("scenario: reading control channel: %w", err)
	}
	return udpMsg{}, io.EOF
}
