// Package lockfix exercises lockhold (blocking channel operations
// with a lock held).
package lockfix

import "sync"

// Counter carries a mutex.
type Counter struct {
	mu sync.Mutex
	n  int
}

// PointerOK shares the lock through a pointer everywhere.
func PointerOK(cs []*Counter) int {
	total := 0
	for _, c := range cs {
		c.mu.Lock()
		total += c.n
		c.mu.Unlock()
	}
	return total
}

// BadSendHeld sends on a channel while holding the lock.
func (c *Counter) BadSendHeld(ch chan int) {
	c.mu.Lock()
	ch <- c.n
	c.mu.Unlock()
}

// BadRecvHeld receives while holding the lock.
func (c *Counter) BadRecvHeld(ch chan int) {
	c.mu.Lock()
	c.n = <-ch
	c.mu.Unlock()
}

// BadSelectHeld parks in a no-default select with the lock held (the
// deferred unlock keeps it held to function exit).
func (c *Counter) BadSelectHeld(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-ch:
		c.n = v
	}
}

// ReleaseFirstOK unlocks before blocking.
func (c *Counter) ReleaseFirstOK(ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	ch <- n
}

// TrySelectOK polls with a default case; never parks.
func (c *Counter) TrySelectOK(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-ch:
		c.n = v
	default:
	}
}
