package serving

import (
	"container/list"
	"sync"
	"time"

	"conceptweb/internal/obs"
)

// cacheShards is the number of independently locked cache segments. Keys
// spread by FNV-1a hash, so under parallel load goroutines contend on
// 1/cacheShards of the lock traffic a single-mutex LRU would see.
const cacheShards = 16

// Cache is a sharded LRU cache with per-entry TTL. A nil *Cache is valid and
// never hits — callers need no "is caching on" branches.
//
// Keys are expected to embed the data epoch (see Layer.do), which makes
// invalidation free: a maintenance pass bumps the epoch, new requests ask
// for new keys, and the orphaned old-epoch entries age out through LRU
// pressure or TTL without any scan.
type Cache struct {
	shards   [cacheShards]cacheShard
	perShard int
	ttl      time.Duration
	// now is swappable so TTL expiry is testable without sleeping.
	now func() time.Time

	evictions, expirations *obs.Counter
	size                   *obs.Gauge
}

type cacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
}

type cacheEntry struct {
	key     string
	val     any
	expires time.Time // zero: no expiry
}

// NewCache builds a cache holding up to capacity entries (split evenly
// across shards) with the given per-entry TTL (<= 0 disables expiry).
// capacity <= 0 returns nil: caching off.
func NewCache(capacity int, ttl time.Duration, reg *obs.Registry) *Cache {
	if capacity <= 0 {
		return nil
	}
	c := &Cache{
		perShard:    (capacity + cacheShards - 1) / cacheShards,
		ttl:         ttl,
		now:         time.Now,
		evictions:   reg.Counter("serve.cache.evictions"),
		expirations: reg.Counter("serve.cache.expirations"),
		size:        reg.Gauge("serve.cache.size"),
	}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// fnv32a hashes key with FNV-1a; inlined to avoid a hash.Hash allocation on
// every lookup.
func fnv32a(key string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h
}

// Get returns the cached value for key, if present and unexpired.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := &c.shards[fnv32a(key)%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		s.lru.Remove(el)
		delete(s.items, key)
		c.size.Add(-1)
		c.expirations.Inc()
		return nil, false
	}
	s.lru.MoveToFront(el)
	return e.val, true
}

// Put stores val under key, evicting the shard's least-recently-used entry
// when the shard is full.
func (c *Cache) Put(key string, val any) {
	if c == nil {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	s := &c.shards[fnv32a(key)%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.expires = val, expires
		s.lru.MoveToFront(el)
		return
	}
	s.items[key] = s.lru.PushFront(&cacheEntry{key: key, val: val, expires: expires})
	c.size.Add(1)
	if s.lru.Len() > c.perShard {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		c.size.Add(-1)
		c.evictions.Inc()
	}
}

// Len reports the number of live entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
