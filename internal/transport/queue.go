package transport

import "sync"

// queueKeep is the most slots a drained queue keeps for its next items: a
// larger buffer, grown by a burst, is let go once the burst is drained, so
// an idle queue holds at most this many slots whatever its bound.
const queueKeep = 64

// Queue is a bounded FIFO whose memory follows its backlog: its ring grows
// as items queue, never past the bound, and is let go once drained. Ready
// holds one token whenever items may be waiting, so a consumer selects on
// it beside other channels and then pops; a token can be stale, never
// missing. The consensus inbox, each TCP peer's send queue and a
// validator's proposals use it.
type Queue[T any] struct {
	mu     sync.Mutex
	buf    []T // ring of len(buf) slots; n of them from head are queued
	head   int
	n      int
	limit  int
	closed bool
	ready  chan struct{}
	room   chan struct{} // a token after a pop, for PushWait
}

// NewQueue returns an empty queue that holds at most limit items.
func NewQueue[T any](limit int) *Queue[T] {
	return &Queue[T]{limit: limit, ready: make(chan struct{}, 1), room: make(chan struct{}, 1)}
}

// signal leaves a token in c unless one is there already.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Push queues v unless the queue holds its bound or is closed, and
// reports whether it did.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	ok := q.push(v)
	q.mu.Unlock()
	if ok {
		signal(q.ready)
	}
	return ok
}

// PushWait queues v, waiting while the queue is full, and reports false if
// the queue is closed or stop closes first.
func (q *Queue[T]) PushWait(v T, stop <-chan struct{}) bool {
	for {
		q.mu.Lock()
		ok, closed, room := q.push(v), q.closed, q.n < q.limit
		q.mu.Unlock()
		if ok {
			signal(q.ready)
			if room {
				signal(q.room) // another waiter may fit too
			}
			return true
		}
		if closed {
			signal(q.room) // the next waiter sees the close too
			return false
		}
		select {
		case <-q.room:
		case <-stop:
			return false
		}
	}
}

func (q *Queue[T]) push(v T) bool {
	if q.closed || q.n >= q.limit {
		return false
	}
	if q.n == len(q.buf) {
		buf := make([]T, min(max(2*len(q.buf), 8), q.limit))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	return true
}

// Pop takes the oldest item; ok is false when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	if ok = q.n > 0; ok {
		v = q.take()
	}
	q.popped(ok)
	return v, ok
}

// Drain appends up to most of the oldest items to dst, in order, and
// returns it.
func (q *Queue[T]) Drain(dst []T, most int) []T {
	q.mu.Lock()
	took := 0
	for ; took < most && q.n > 0; took++ {
		dst = append(dst, q.take())
	}
	q.popped(took > 0)
	return dst
}

// take removes the oldest item, letting go of a grown ring once it is
// empty. Caller holds mu, and the queue is not empty.
func (q *Queue[T]) take() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 {
		q.head = 0
		if len(q.buf) > queueKeep {
			q.buf = nil
		}
	}
	return v
}

// popped releases mu after a pop: Ready keeps a token while items are
// left, and a pop that took any makes room for a PushWait.
func (q *Queue[T]) popped(took bool) {
	left := q.n
	q.mu.Unlock()
	if left > 0 {
		signal(q.ready)
	}
	if took {
		signal(q.room)
	}
}

// Ready returns the channel that holds a token whenever items may be
// queued.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close lets go of what is queued and refuses every later push.
// Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.buf, q.head, q.n = nil, 0, 0
	q.mu.Unlock()
	signal(q.room) // wake a PushWait to see the close
}
