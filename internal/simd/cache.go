package simd

import (
	"container/list"

	"refer/internal/experiment"
)

// cacheEntry is one cached outcome: a run's Result, or the Table of a grid —
// what a figure build computed, not the one column that was asked for, so
// its sibling figures are hits. The stored stats are wall-clock-stripped at
// insertion, so a cached entry is byte-identical to what a fresh run of the
// same canonical config would serve (replay determinism makes everything
// else a function of the key).
type cacheEntry struct {
	key    string
	result *experiment.Result
	table  *experiment.Table
}

// resultCache is a bounded LRU over canonical config keys. It is not
// self-locking: the server guards it with its own mutex.
type resultCache struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (*cacheEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *resultCache) put(ent *cacheEntry) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.items[ent.key]; ok {
		c.ll.MoveToFront(el)
		el.Value = ent
		return
	}
	c.items[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int { return c.ll.Len() }
