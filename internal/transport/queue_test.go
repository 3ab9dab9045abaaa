package transport

import (
	"testing"
	"time"
)

// TestQueueBoundOrderAndRelease: the queue keeps FIFO order across ring
// wraps and growth, refuses the item past its bound, lets go of a grown
// ring once drained, and accepts nothing once closed.
func TestQueueBoundOrderAndRelease(t *testing.T) {
	const bound = 300
	q := NewQueue[int](bound)
	next, want := 0, 0
	for round := 0; round < 3; round++ {
		for q.Len() < bound {
			if !q.Push(next) {
				t.Fatalf("push %d refused at %d queued", next, q.Len())
			}
			next++
		}
		if q.Push(-1) {
			t.Fatalf("push accepted past the bound of %d", bound)
		}
		select {
		case <-q.Ready():
		default:
			t.Fatal("no ready token with items queued")
		}
		// Take part of the backlog, so the next round wraps the ring.
		for _, v := range q.Drain(nil, bound/3) {
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
	if q.buf != nil {
		t.Fatalf("a drained queue keeps %d slots, want its ring let go", len(q.buf))
	}
	q.Push(1)
	q.Close()
	if q.Len() != 0 || q.Push(2) || q.PushWait(3, nil) {
		t.Fatal("a closed queue holds or accepts items")
	}
}

// TestQueuePushWaitWaitsForRoom: PushWait blocks on a full queue until a
// pop makes room, and returns false when stop closes first.
func TestQueuePushWaitWaitsForRoom(t *testing.T) {
	q := NewQueue[int](2)
	q.Push(0)
	q.Push(1)
	done := make(chan bool)
	go func() { done <- q.PushWait(2, nil) }()
	select {
	case <-done:
		t.Fatal("PushWait returned on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	if v, _ := q.Pop(); v != 0 {
		t.Fatalf("popped %d, want 0", v)
	}
	if !<-done {
		t.Fatal("PushWait refused after a pop made room")
	}
	if got := q.Drain(nil, 10); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", got)
	}

	q.Push(3)
	q.Push(4)
	stop := make(chan struct{})
	go func() { done <- q.PushWait(5, stop) }()
	close(stop)
	if <-done {
		t.Fatal("PushWait queued past the bound after stop")
	}
}
