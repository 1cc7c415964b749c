// Package interconnect models the machine's two transports (Table 1):
// a split-transaction broadcast address bus (12-cycle access latency, up to
// 117 outstanding requests, Gigaplane-style) and a point-to-point crossbar
// data network (40 cycles per cache-line transfer, Gigaplane-XB-style).
package interconnect

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/mem"
)

// Tx is one address-bus transaction.
type Tx struct {
	ID        uint64
	Kind      mem.TxKind
	Addr      mem.Addr
	Line      mem.LineID
	Requester mem.NodeID
}

// BusConfig parameterizes the address bus.
type BusConfig struct {
	// Latency is the cycles from bus grant to global observation (the
	// coherence point).
	Latency engine.Time
	// GrantInterval is the minimum spacing between consecutive grants
	// (address-bus bandwidth).
	GrantInterval engine.Time
	// MaxOutstanding caps transactions that have been granted but whose
	// data phase has not completed.
	MaxOutstanding int
}

// Validate rejects unusable configurations.
func (c BusConfig) Validate() error {
	if c.GrantInterval == 0 || c.MaxOutstanding <= 0 {
		return fmt.Errorf("interconnect: bad bus config %+v", c)
	}
	return nil
}

// Bus is the split-transaction broadcast address bus. Requests arbitrate
// FIFO; a granted transaction becomes globally visible Latency cycles
// later, at which point Observe is invoked exactly once. The requester (or
// its delegate) must call Complete when the transaction's data phase
// finishes to free an outstanding slot.
type Bus struct {
	eng     *engine.Engine
	cfg     BusConfig
	observe func(Tx)
	monitor func(queued, outstanding int)

	observeAt *engine.Handler[Tx] // observation instants, then a pump
	pumpEv    engine.Event

	nextID      uint64
	nextGrant   engine.Time
	outstanding int
	waiting     []Tx

	// Statistics.
	Transactions uint64
	MaxQueue     int
}

// SetMonitor installs an occupancy probe invoked whenever the bus's queue
// or outstanding-transaction population changes (request enqueue, grant,
// completion). The probe observes only — it must not call back into the
// bus — so a nil-checked no-op is the only cost when detached. nil removes
// the probe.
func (b *Bus) SetMonitor(fn func(queued, outstanding int)) { b.monitor = fn }

func (b *Bus) sample() {
	if b.monitor != nil {
		b.monitor(len(b.waiting), b.outstanding)
	}
}

// NewBus builds the bus; observe is called at each transaction's global
// observation instant.
func NewBus(eng *engine.Engine, cfg BusConfig, observe func(Tx)) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Bus{eng: eng, cfg: cfg, observe: observe}
	b.observeAt = engine.NewHandler(eng, b.observed)
	b.pumpEv = func(engine.Time) { b.pump() }
	return b
}

// Outstanding reports granted-but-incomplete transactions.
func (b *Bus) Outstanding() int { return b.outstanding }

// Queued reports transactions waiting for arbitration.
func (b *Bus) Queued() int { return len(b.waiting) }

// Request enqueues a transaction for arbitration and returns its id.
func (b *Bus) Request(kind mem.TxKind, addr mem.Addr, requester mem.NodeID) uint64 {
	b.nextID++
	tx := Tx{ID: b.nextID, Kind: kind, Addr: addr, Line: addr.Line(), Requester: requester}
	b.waiting = append(b.waiting, tx)
	if len(b.waiting) > b.MaxQueue {
		b.MaxQueue = len(b.waiting)
	}
	b.sample()
	b.pump()
	return tx.ID
}

// Complete releases the outstanding slot held by a granted transaction.
func (b *Bus) Complete() {
	if b.outstanding == 0 {
		panic("interconnect: Complete without outstanding transaction")
	}
	b.outstanding--
	b.sample()
	b.pump()
}

// pump grants the next waiting transaction if bandwidth and outstanding
// slots allow.
func (b *Bus) pump() {
	if len(b.waiting) == 0 || b.outstanding >= b.cfg.MaxOutstanding {
		return
	}
	now := b.eng.Now()
	grantAt := b.nextGrant
	if grantAt < now {
		grantAt = now
	}
	tx := b.waiting[0]
	n := copy(b.waiting, b.waiting[1:]) // keep the queue's capacity
	b.waiting = b.waiting[:n]
	b.outstanding++
	b.nextGrant = grantAt + b.cfg.GrantInterval
	b.Transactions++
	b.sample()
	b.observeAt.At(grantAt+b.cfg.Latency, tx)
	// Chain further grants within bandwidth limits.
	if len(b.waiting) > 0 && b.outstanding < b.cfg.MaxOutstanding {
		b.eng.At(b.nextGrant, b.pumpEv)
	}
}

// observed runs at tx's observation instant.
func (b *Bus) observed(tx Tx) {
	b.observe(tx)
	// Grant the next waiter (bandwidth period may have passed).
	b.pump()
}
