package cache

import "repro/internal/period"

// Clone returns a deep copy of the cache: identical contents, recency
// state, and statistics.
func (c *Cache) Clone() *Cache {
	d := &Cache{}
	c.CopyTo(d)
	return d
}

// CopyTo makes dst a deep copy of c, reusing dst's line storage.
func (c *Cache) CopyTo(dst *Cache) {
	lines := dst.lines
	*dst = *c
	dst.lines = append(lines[:0], c.lines...)
}

// Repeats reports whether c is prev advanced by one period of repeating
// accesses (see package period): the same lines hold the same tags, and
// recency stamps shifted with the tick without reordering any set's
// valid lines. Statistics may differ.
func (c *Cache) Repeats(prev *Cache) bool {
	if c.cfg != prev.cfg || len(c.lines) != len(prev.lines) {
		return false
	}
	d := c.tick - prev.tick
	for s := 0; s < len(c.lines); s += c.cfg.Ways {
		cur, old := c.lines[s:s+c.cfg.Ways], prev.lines[s:s+c.cfg.Ways]
		for i := range cur {
			a := cur[i]
			a.lru = old[i].lru
			if a != old[i] {
				return false
			}
		}
		if !period.Stamps(len(cur), d, func(i int) (uint64, uint64, bool) {
			return cur[i].lru, old[i].lru, cur[i].valid
		}) {
			return false
		}
	}
	return true
}

// Extrapolate advances c by m more periods of the change from prev, for
// a c that Repeats prev: the tick and every stamp that moved advance by
// m tick deltas, and the statistics grow linearly.
func (c *Cache) Extrapolate(prev *Cache, m uint64) {
	d := c.tick - prev.tick
	for i := range c.lines {
		if c.lines[i].lru != prev.lines[i].lru {
			c.lines[i].lru += m * d
		}
	}
	c.tick += m * d
	period.Counters(&c.stats, &prev.stats, m)
}
