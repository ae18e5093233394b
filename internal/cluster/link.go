package cluster

import (
	"ibis/internal/broker"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// endpoint is the broker side of a coordination link: the centralized
// broker (through central) or one partition of the federated plane
// (*broker.Partition). now is the endpoint's virtual time, which gates
// a partition's leader outages and staleness budget.
type endpoint interface {
	Exchange(id string, vec map[iosched.AppID]float64, now float64) (broker.Response, error)
	Register(id string, now float64) error
	Unregister(id string)
}

// central adapts the centralized broker to endpoint: it has no leader
// to lose and no root view to age, so it never fails on its own.
type central struct{ b *broker.Broker }

func (e central) Exchange(id string, vec map[iosched.AppID]float64, _ float64) (broker.Response, error) {
	return e.b.Exchange(id, vec), nil
}

func (e central) Register(id string, _ float64) error { e.b.Register(id); return nil }

func (e central) Unregister(id string) { e.b.Unregister(id) }

// link is a coordination client's broker.Transport: the one model of
// the report/response round trip, on a single engine and on the
// fabric alike.
//
// The request leg is a daemon hop to the endpoint's shard — a direct
// call on a single engine, by the same rule as sim.Hop. The endpoint
// evaluates the message's fate with the injector and a per-client
// counter: one client's messages reach its endpoint in send order, so
// the counter, and with it every fault roll, is independent of how
// other clients' traffic interleaves. An outage or partition answers
// ErrUnavailable; a dropped request never reaches the broker and a
// dropped response leaves the report applied, and both answer ErrLost.
// The reply is a daemon hop back, delayed by the fate's extra latency
// when the round trip succeeded; on a single engine an undelayed reply
// runs inline. Daemon, because periodic coordination must not keep the
// simulation alive.
type link struct {
	ep  endpoint
	inj *faults.Injector // nil = reliable
	eng *sim.Engine      // the client's engine
	at  *sim.Engine      // the endpoint's engine
	// from and to are the client's and the endpoint's shards; both nil
	// on a single engine.
	from, to *sim.Shard
	seq      uint64 // fate counter, advanced at the endpoint
}

// newLink connects a client on eng (shard from, nil on a single
// engine) to ep on shard to.
func newLink(ep endpoint, inj *faults.Injector, eng *sim.Engine, from, to *sim.Shard) *link {
	l := &link{ep: ep, inj: inj, eng: eng, at: eng, from: from, to: to}
	if to != nil {
		l.at = to.Engine()
	}
	return l
}

var _ broker.Transport = (*link)(nil)

// hop runs fn delay seconds later on the other end of a leg: a daemon
// message on the fabric, a daemon event or a direct call on a single
// engine.
func (l *link) hop(from, to *sim.Shard, delay float64, fn func()) {
	switch {
	case from != nil:
		from.PostDaemon(to.ID(), delay, fn)
	case delay > 0:
		l.eng.ScheduleDaemon(delay, fn)
	default:
		fn()
	}
}

// arrive evaluates a request's fate on reaching the endpoint at time
// now. A non-nil err means the broker never sees the request.
func (l *link) arrive(id string) (fate faults.MsgFate, now float64, err error) {
	now = l.at.Now()
	if l.inj == nil {
		return fate, now, nil
	}
	fate = l.inj.Fate(id, l.seq, now)
	l.seq++
	switch {
	case fate.Unavailable:
		err = broker.ErrUnavailable
	case fate.ReqDrop:
		err = broker.ErrLost
	}
	return fate, now, err
}

// reply is the reply leg's outcome for a request that ended with err
// at the endpoint: a dropped response turns success into ErrLost, and
// only a successful reply carries the fate's extra delay.
func reply(fate faults.MsgFate, err error) (float64, error) {
	switch {
	case err != nil:
		return 0, err
	case fate.RespDrop:
		return 0, broker.ErrLost
	}
	return fate.Delay, nil
}

// Exchange implements broker.Transport.
func (l *link) Exchange(id string, vec map[iosched.AppID]float64, done func(broker.Response, error)) {
	l.hop(l.from, l.to, 0, func() {
		var resp broker.Response
		fate, now, err := l.arrive(id)
		if err == nil {
			resp, err = l.ep.Exchange(id, vec, now)
		}
		delay, err := reply(fate, err)
		l.hop(l.to, l.from, delay, func() { done(resp, err) })
	})
}

// Register implements broker.Transport: the handshake rides the same
// faulty channel as exchanges.
func (l *link) Register(id string, done func(error)) {
	l.hop(l.from, l.to, 0, func() {
		fate, now, err := l.arrive(id)
		if err == nil {
			err = l.ep.Register(id, now)
		}
		delay, err := reply(fate, err)
		l.hop(l.to, l.from, delay, func() { done(err) })
	})
}

// Unregister implements broker.Transport. Node death is detected out
// of band (the resource manager's liveness tracking), so the request
// crosses to the endpoint but is not subject to message faults.
func (l *link) Unregister(id string) {
	l.hop(l.from, l.to, 0, func() { l.ep.Unregister(id) })
}
