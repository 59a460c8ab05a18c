package engine

import (
	"container/list"
	"sync"
)

// lru is a minimal string-keyed LRU used for instances, solve results, and
// payload aliases. Not safe for concurrent use; callers serialize access
// with the enclosing mutex.
type lru struct {
	cap       int
	ll        *list.List
	m         map[string]*list.Element
	evictions int64
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

func (l *lru) get(k string) (any, bool) {
	el, ok := l.m[k]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (l *lru) add(k string, v any) {
	if el, ok := l.m[k]; ok {
		el.Value.(*lruEntry).val = v
		l.ll.MoveToFront(el)
		return
	}
	l.m[k] = l.ll.PushFront(&lruEntry{key: k, val: v})
	for l.ll.Len() > l.cap {
		back := l.ll.Back()
		delete(l.m, back.Value.(*lruEntry).key)
		l.ll.Remove(back)
		l.evictions++
	}
}

func (l *lru) len() int { return l.ll.Len() }

// CacheConfig bounds the shared cache. Zero values select the defaults.
// Both bounds are exact: each kind lives in one LRU.
type CacheConfig struct {
	// MaxInstances bounds decoded graphs kept resident (default 32).
	MaxInstances int
	// MaxResults bounds cached solve results (default 256).
	MaxResults int
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxInstances <= 0 {
		c.MaxInstances = 32
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 256
	}
	return c
}

// CacheStats are the cache's observability counters.
type CacheStats struct {
	Instances         int   `json:"instances"`
	Results           int   `json:"results"`
	InstanceHits      int64 `json:"instanceHits"`
	InstanceMisses    int64 `json:"instanceMisses"`
	InstanceEvictions int64 `json:"instanceEvictions"`
	ResultHits        int64 `json:"resultHits"`
	ResultMisses      int64 `json:"resultMisses"`
	ResultEvictions   int64 `json:"resultEvictions"`
}

// Cache is the shared instance/result cache. Instances are keyed by the
// content hash of their canonical binary graphio encoding, so the same
// graph posted in text and binary form shares one entry; an alias table
// maps raw payload hashes to canonical keys so repeat posts skip both
// parsing and re-encoding. Results are keyed by resultKey. Safe for
// concurrent use: one mutex guards all three LRUs, whose operations are
// map lookups and list moves.
type Cache struct {
	mu        sync.Mutex
	instances *lru // canonical key → *Instance
	aliases   *lru // payload hash → canonical key
	results   *lru // result key → *Result
	instHits,
	instMisses,
	resHits,
	resMisses int64
}

// NewCache returns a cache with the given bounds.
func NewCache(cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	return &Cache{
		instances: newLRU(cfg.MaxInstances),
		// Aliases are tiny (two hashes); keep more of them than instances
		// so re-posts in several formats stay cheap.
		aliases: newLRU(4 * cfg.MaxInstances),
		results: newLRU(cfg.MaxResults),
	}
}

// lookupPayload resolves a raw payload hash to a cached instance, if the
// alias and the instance it points at are both still resident.
func (c *Cache) lookupPayload(payloadKey string) (*Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ck, ok := c.aliases.get(payloadKey); ok {
		if inst, ok := c.instances.get(ck.(string)); ok {
			c.instHits++
			return inst.(*Instance), true
		}
	}
	c.instMisses++
	return nil, false
}

// storeInstance records inst under its canonical key and links the raw
// payload hash to it. It returns the resident copy, which may be an
// existing entry when two payloads decode to the same graph.
func (c *Cache) storeInstance(payloadKey string, inst *Instance) *Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.instances.get(inst.Key); ok {
		inst = cur.(*Instance)
	} else {
		c.instances.add(inst.Key, inst)
	}
	c.aliases.add(payloadKey, inst.Key)
	return inst
}

// addAlias links an additional payload hash to a resident instance key.
func (c *Cache) addAlias(payloadKey, instanceKey string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aliases.add(payloadKey, instanceKey)
}

func (c *Cache) lookupResult(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.results.get(key); ok {
		c.resHits++
		return v.(*Result), true
	}
	c.resMisses++
	return nil, false
}

func (c *Cache) storeResult(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.add(key, res)
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Instances:         c.instances.len(),
		Results:           c.results.len(),
		InstanceHits:      c.instHits,
		InstanceMisses:    c.instMisses,
		InstanceEvictions: c.instances.evictions,
		ResultHits:        c.resHits,
		ResultMisses:      c.resMisses,
		ResultEvictions:   c.results.evictions,
	}
}
