package cache

// MRUHit reports whether the MRU-way hit path is enabled on c.
func (c *Cache) MRUHit() bool { return c.mruHit }

// ForceSearch turns the MRU-way hit path off, so every access takes
// the full way search — the reference the differential compares with.
func (c *Cache) ForceSearch() { c.mruHit = false }
