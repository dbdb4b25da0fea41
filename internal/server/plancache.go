package server

import (
	"container/list"
	"sync"

	"xquec"
)

// PlanCache is an LRU cache of prepared (parsed) queries keyed by
// (repository, topology, query text), so a repeated workload query
// skips the parser on every execution after the first. Prepared
// queries are read-only after construction and every execution builds
// its own engine state, so one cached entry serves any number of
// concurrent requests.
//
// The topology component is the database's TopologyKey — it pins the
// plan to the repository *instance* (and, for shard sets, the shard
// layout), so a plan prepared against an evicted-and-reloaded or
// swapped repository can never be served against its successor: the
// key misses and the query re-prepares against the new handle.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[planKey]*list.Element
	lru     *list.List // front = most recent; values are *planEntry
	bytes   int64      // sum of resident entry costs (CostBytes)

	hits, misses, evictions int64
}

type planKey struct{ repo, topo, query string }

type planEntry struct {
	key  planKey
	prep *xquec.Prepared
	cost int64 // resident size charged against the cache (CostBytes)
}

// NewPlanCache returns a cache holding up to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{cap: capacity, entries: map[planKey]*list.Element{}, lru: list.New()}
}

// Get returns the cached plan for (repo, topo, query), or nil.
func (c *PlanCache) Get(repo, topo, query string) *xquec.Prepared {
	k := planKey{repo, topo, query}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).prep
}

// Put inserts a plan, evicting the least recently used entry when the
// cache is full. Each entry is charged its Prepared.CostBytes — for
// compiled plans that is the program's estimated resident size, so the
// cache accounts for what it actually pins in memory, not just entry
// count. Put returns the number of evicted entries and the cache's
// resident bytes after the insertion.
func (c *PlanCache) Put(repo, topo, query string, prep *xquec.Prepared) (evicted int, sizeBytes int64) {
	k := planKey{repo, topo, query}
	cost := int64(prep.CostBytes())
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*planEntry)
		c.bytes += cost - e.cost
		e.prep, e.cost = prep, cost
		return 0, c.bytes
	}
	c.entries[k] = c.lru.PushFront(&planEntry{key: k, prep: prep, cost: cost})
	c.bytes += cost
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		e := tail.Value.(*planEntry)
		delete(c.entries, e.key)
		c.bytes -= e.cost
		c.evictions++
		evicted++
	}
	return evicted, c.bytes
}

// Invalidate drops every plan cached for repo (used when a repository
// handle is replaced).
func (c *PlanCache) Invalidate(repo string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.entries {
		if k.repo == repo {
			c.bytes -= el.Value.(*planEntry).cost
			c.lru.Remove(el)
			delete(c.entries, k)
		}
	}
}

// PlanCacheStats is a snapshot of the cache's counters.
type PlanCacheStats struct {
	Capacity  int   `json:"capacity"`
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the cache.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Capacity: c.cap, Entries: c.lru.Len(), SizeBytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
