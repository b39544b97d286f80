package serve

import (
	"bytes"
	"strings"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := newLRUCache(1 << 20)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	body := []byte(`{"x":1}`)
	c.put("a", body)
	got, ok := c.get("a")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get = %q, %v; want %q, true", got, ok, body)
	}
	hits, misses, evictions, bytes_, entries := c.stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d; want 1, 1, 0", hits, misses, evictions)
	}
	if entries != 1 || bytes_ != itemSize("a", body) {
		t.Fatalf("entries=%d bytes=%d; want 1, %d", entries, bytes_, itemSize("a", body))
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	body := []byte(strings.Repeat("x", 100))
	per := itemSize("k1", body) // all keys are 2 bytes, so all entries cost the same
	c := newLRUCache(3 * per)
	c.put("k1", body)
	c.put("k2", body)
	c.put("k3", body)
	// Touch k1 so k2 is the least recently used.
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.put("k4", body)
	if _, ok := c.get("k2"); ok {
		t.Fatal("k2 survived eviction but was least recently used")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s was evicted; want k2 evicted", k)
		}
	}
	_, _, evictions, _, entries := c.stats()
	if evictions != 1 || entries != 3 {
		t.Fatalf("evictions=%d entries=%d; want 1, 3", evictions, entries)
	}
}

func TestCacheOversizedEntrySkipped(t *testing.T) {
	c := newLRUCache(64)
	c.put("big", make([]byte, 1024))
	if _, ok := c.get("big"); ok {
		t.Fatal("entry larger than the whole budget was stored")
	}
	_, _, evictions, bytes_, entries := c.stats()
	if evictions != 0 || bytes_ != 0 || entries != 0 {
		t.Fatalf("evictions=%d bytes=%d entries=%d after oversized put; want 0, 0, 0", evictions, bytes_, entries)
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := newLRUCache(1 << 20)
	c.put("a", []byte("short"))
	longer := []byte(strings.Repeat("y", 200))
	c.put("a", longer)
	got, ok := c.get("a")
	if !ok || !bytes.Equal(got, longer) {
		t.Fatalf("refreshed entry = %q; want the new body", got)
	}
	_, _, _, bytes_, entries := c.stats()
	if entries != 1 {
		t.Fatalf("entries=%d after refresh; want 1", entries)
	}
	if want := itemSize("a", longer); bytes_ != want {
		t.Fatalf("bytes=%d after refresh; want %d", bytes_, want)
	}
}

func TestCacheNegativeBudgetDisables(t *testing.T) {
	c := newLRUCache(-1)
	c.put("a", []byte("x"))
	if _, ok := c.get("a"); ok {
		t.Fatal("negative-budget cache stored an entry")
	}
}
