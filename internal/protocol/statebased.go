package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// stateMsg carries a full CRDT state (state-based synchronization).
type stateMsg struct {
	State lattice.State
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *stateMsg) Kind() string { return "state" }

// Cost implements Msg.
func (m *stateMsg) Cost() metrics.Transmission { return m.cost }

// stateBased is the classic state-based synchronization baseline: the full
// local state is periodically shipped to every neighbor and joined on
// receipt. It needs no synchronization metadata at all, which is why the
// paper reports it as memory-optimal (Figure 10) yet transmission-heavy.
type stateBased struct {
	cfg Config
	x   lattice.State
}

// NewStateBased returns the state-based engine factory.
func NewStateBased() Factory {
	return func(cfg Config) Engine {
		return &stateBased{cfg: cfg, x: cfg.Datatype.New()}
	}
}

func (e *stateBased) ID() string           { return e.cfg.ID }
func (e *stateBased) State() lattice.State { return e.x }

func (e *stateBased) LocalOp(op workload.Op) {
	d := e.cfg.Datatype.Delta(e.x, e.cfg.ID, op)
	e.x.Merge(d)
}

func (e *stateBased) Sync(send Sender) {
	if e.x.IsBottom() {
		return
	}
	for _, j := range e.cfg.Neighbors {
		send(j, newStateMsg(e.x.Clone()))
	}
}

func (e *stateBased) Deliver(_ string, m Msg, _ Sender) {
	sm, ok := m.(*stateMsg)
	if !ok {
		return
	}
	e.x.Merge(sm.State)
}

func (e *stateBased) Memory() metrics.Memory {
	return metrics.Memory{CRDTBytes: e.x.SizeBytes()}
}
