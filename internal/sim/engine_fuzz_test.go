package sim

import (
	"math"
	"testing"
)

// orderSubject is the surface FuzzEngineOrder drives: the Engine, or
// the naive reference model below. Handles are addressed by the order
// in which they were scheduled.
type orderSubject interface {
	Now() float64
	Pending() int
	Live() int
	schedule(delay float64, daemon bool, fn func())
	cancel(handle int)
	RunBefore(limit float64) int
	RunUntil(limit float64) float64
	Step() bool
}

type engineSubject struct {
	*Engine
	handles []Event
}

func (s *engineSubject) schedule(delay float64, daemon bool, fn func()) {
	if daemon {
		s.handles = append(s.handles, s.ScheduleDaemon(delay, fn))
	} else {
		s.handles = append(s.handles, s.Schedule(delay, fn))
	}
}

func (s *engineSubject) cancel(handle int) { s.Cancel(s.handles[handle]) }

// refModel is the reference the engine is checked against: a slice of
// pending events, fired by a linear scan for the (time, seq) minimum.
// It restates the documented semantics — live counting, RunUntil's
// clock-to-limit, RunBefore's strict limit, stale-handle no-ops —
// with no data structure to get wrong.
type refModel struct {
	now     float64
	seq     int
	live    int
	pending []refEvent
}

type refEvent struct {
	time   float64
	seq    int // doubles as the handle
	daemon bool
	fn     func()
}

func (m *refModel) Now() float64 { return m.now }
func (m *refModel) Pending() int { return len(m.pending) }
func (m *refModel) Live() int    { return m.live }

func (m *refModel) schedule(delay float64, daemon bool, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	m.pending = append(m.pending, refEvent{m.now + delay, m.seq, daemon, fn})
	m.seq++
	if !daemon {
		m.live++
	}
}

func (m *refModel) cancel(handle int) {
	for i, ev := range m.pending {
		if ev.seq == handle {
			m.remove(i)
			return
		}
	}
}

func (m *refModel) remove(i int) refEvent {
	ev := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	if !ev.daemon {
		m.live--
	}
	return ev
}

// head returns the index of the (time, seq) minimum, or -1.
func (m *refModel) head() int {
	best := -1
	for i, ev := range m.pending {
		if best < 0 || ev.time < m.pending[best].time ||
			(ev.time == m.pending[best].time && ev.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refModel) fire(i int) {
	ev := m.remove(i)
	m.now = ev.time
	ev.fn()
}

func (m *refModel) RunBefore(limit float64) int {
	n := 0
	for i := m.head(); i >= 0 && m.pending[i].time < limit; i = m.head() {
		m.fire(i)
		n++
	}
	return n
}

func (m *refModel) RunUntil(limit float64) float64 {
	for i := m.head(); m.live > 0 && i >= 0 && m.pending[i].time <= limit; i = m.head() {
		m.fire(i)
	}
	if !math.IsInf(limit, 1) && limit > m.now {
		m.now = limit
	}
	return m.now
}

func (m *refModel) Step() bool {
	i := m.head()
	if i < 0 {
		return false
	}
	m.fire(i)
	return true
}

// orderObs is one observation of a script run: a fired event, or the
// result and engine state after one script operation.
type orderObs struct {
	op            byte
	id            int
	t             float64
	pending, live int
}

// runOrderScript decodes ops into a schedule/cancel/reschedule/advance
// script, runs it on s and returns everything observable along the way.
// The decoder spreads delays over same-instant runs, near completions,
// mid horizons and far timers, and advances through all three executors
// (RunBefore windows, RunUntil, Step) so that mutation from inside
// callbacks interleaves with every dispatch path.
func runOrderScript(s orderSubject, ops []byte) []orderObs {
	var log []orderObs
	handles := 0
	var schedule func(delay float64, daemon bool)
	schedule = func(delay float64, daemon bool) {
		myID := handles
		handles++
		s.schedule(delay, daemon, func() {
			log = append(log, orderObs{op: 'f', id: myID, t: s.Now()})
			// Every third event schedules a child, so mutation also
			// happens from inside callbacks, same-instant runs included.
			if myID%3 == 0 {
				schedule(float64(myID%7)*0.37, false)
			}
		})
	}
	decodeDelay := func(d byte) float64 {
		switch d % 4 {
		case 0:
			return 0 // same instant
		case 1:
			return float64(d>>2) * 1e-3 // near
		case 2:
			return float64(d>>2) * 1.9 // mid
		default:
			return 800 + float64(d>>2)*41.7 // far
		}
	}
	i := 0
	next := func() byte {
		if i >= len(ops) {
			return 0
		}
		b := ops[i]
		i++
		return b
	}
	for i < len(ops) {
		b := next()
		res := 0
		switch b % 8 {
		case 0, 1, 2:
			schedule(decodeDelay(next()), false)
		case 3:
			schedule(decodeDelay(next()), true)
		case 4: // cancel a (possibly stale) handle
			if handles > 0 {
				s.cancel(int(next()) % handles)
			}
		case 5: // reschedule: cancel + fresh schedule
			if handles > 0 {
				s.cancel(int(next()) % handles)
			}
			schedule(decodeDelay(next()), false)
		case 6: // one conservative-sync window
			res = s.RunBefore(s.Now() + float64(next())*0.11)
		case 7:
			if next()%2 == 0 {
				if s.Step() {
					res = 1
				}
			} else {
				s.RunUntil(s.Now() + float64(next())*2.3)
			}
		}
		log = append(log, orderObs{b % 8, res, s.Now(), s.Pending(), s.Live()})
	}
	// Drain everything left, far timers included.
	res := s.RunBefore(1e12)
	return append(log, orderObs{'d', res, s.Now(), s.Pending(), s.Live()})
}

// FuzzEngineOrder checks the engine against refModel: an identical
// randomized script must fire the same events in the same (time, seq)
// order and leave the same clock, Pending and Live after every step.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x01, 0x52, 0x02, 0xa4, 0x2d, 0x40, 0x03, 0x01, 0x2f, 0x80})
	f.Add([]byte{0x08, 0xff, 0x09, 0xfe, 0x0a, 0xfd, 0x2d, 0xff, 0x2e, 0x2f, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d, 0x01, 0x03, 0x00, 0x03, 0x01})
	f.Add([]byte{0x10, 0xc3, 0x11, 0xc4, 0x04, 0x00, 0x91, 0x2d, 0xf0, 0x2e, 0x2e, 0x2e})
	// An event due exactly at a window's limit must wait for the next
	// window.
	f.Add([]byte{0x00, 0x00, 0x06, 0x00})
	// Same-time events scheduled from far away and from close by; see
	// TestSameTimeOrderAcrossScheduleHorizons for the distilled case.
	f.Add([]byte("000000000000&0000000070000000000&000000071z00000000&00\xee700000000000711000700000000&0000000000000000700000"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		got := runOrderScript(&engineSubject{Engine: NewEngine()}, ops)
		want := runOrderScript(&refModel{}, ops)
		for k := 0; k < len(got) && k < len(want); k++ {
			if got[k] != want[k] {
				t.Fatalf("observation %d diverged: engine %+v, reference %+v", k, got[k], want[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine made %d observations, reference %d", len(got), len(want))
		}
	})
}
