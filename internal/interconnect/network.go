package interconnect

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/mem"
)

// Msg is one data-network message: a cache line (or tear-off word) moving
// between nodes or between a node and memory.
type Msg struct {
	Kind  mem.DataKind
	Line  mem.LineID
	Data  mem.LineData
	Dirty bool // the payload differs from memory's copy
	From  mem.NodeID
	To    mem.NodeID
	TxID  uint64 // the address transaction this responds to, 0 if none

	// Loan marks a retention-mode exclusive response: the receiver must
	// perform its single pending write and send the line back to ReturnTo
	// with DataReturn (the paper's "special marker").
	Loan     bool
	ReturnTo mem.NodeID
}

// NetConfig parameterizes the crossbar data network.
type NetConfig struct {
	// Latency is the transfer time for one cache line between any pair of
	// ports.
	Latency engine.Time
	// PortInterval is per-source-port serialization: a port can begin a
	// new transfer only this many cycles after the previous one.
	PortInterval engine.Time
}

// Validate rejects unusable configurations.
func (c NetConfig) Validate() error {
	if c.PortInterval == 0 {
		return fmt.Errorf("interconnect: bad network config %+v", c)
	}
	return nil
}

// Network is the point-to-point crossbar. Messages from one source port
// serialize; distinct sources transfer concurrently. Delivery invokes the
// deliver callback at arrival time.
type Network struct {
	eng       *engine.Engine
	cfg       NetConfig
	deliverAt *engine.Handler[Msg]

	portFree map[mem.NodeID]engine.Time

	// perturb, when installed, stretches individual message latencies for
	// schedule exploration; lastArrive keeps per-source delivery order
	// intact under arbitrary perturbations.
	perturb    func(idx uint64, m Msg) engine.Time
	lastArrive map[mem.NodeID]engine.Time

	// Statistics.
	Messages  uint64
	ByKind    [8]uint64
	LineMoves uint64 // messages that moved a full line (everything but tear-offs)
}

// NewNetwork builds the crossbar; deliver runs at each message's arrival.
func NewNetwork(eng *engine.Engine, cfg NetConfig, deliver func(Msg)) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{eng: eng, cfg: cfg, deliverAt: engine.NewHandler(eng, deliver), portFree: make(map[mem.NodeID]engine.Time)}
}

// SetPerturb installs a per-message delivery-delay function used by the
// schedule explorer: message idx (the network's send sequence number) is
// delivered fn(idx, m) cycles later than its nominal arrival. Deliveries
// from the same source port remain in send order — the crossbar's
// constant-latency, port-serialized model guarantees per-source FIFO and
// the protocol is entitled to rely on it — but messages from distinct
// sources may now be reordered arbitrarily within the perturbation window.
// fn must be deterministic; nil restores exact nominal timing.
func (n *Network) SetPerturb(fn func(idx uint64, m Msg) engine.Time) {
	n.perturb = fn
	if fn != nil && n.lastArrive == nil {
		n.lastArrive = make(map[mem.NodeID]engine.Time)
	}
}

// Send schedules the message and returns its departure time (after source
// port serialization).
func (n *Network) Send(m Msg) engine.Time {
	now := n.eng.Now()
	depart := n.portFree[m.From]
	if depart < now {
		depart = now
	}
	n.portFree[m.From] = depart + n.cfg.PortInterval
	idx := n.Messages
	n.Messages++
	n.ByKind[m.Kind]++
	if m.Kind != mem.DataTearOff {
		n.LineMoves++
	}
	arrive := depart + n.cfg.Latency
	if n.perturb != nil {
		arrive += n.perturb(idx, m)
		if la := n.lastArrive[m.From]; arrive < la {
			arrive = la
		}
		n.lastArrive[m.From] = arrive
	}
	n.deliverAt.At(arrive, m)
	return depart
}
