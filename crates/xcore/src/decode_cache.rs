//! The per-core predecoded instruction cache.
//!
//! [`Core::step_thread`](crate::Core) used to call `swallow_isa::decode`
//! on raw SRAM words at *every* issue slot, re-deriving the same
//! instruction, word count, issue timing and energy class millions of
//! times. The [`DecodeCache`] maps each SRAM word index to a packed
//! [`Predecoded`] entry, filled lazily on first execution, so the
//! steady-state fetch path is one array load.
//!
//! # Invisibility
//!
//! Every field of an entry is a pure function of the instruction words
//! it was decoded from, so a hit is indistinguishable from a fresh
//! decode — *provided no stale entry survives a store into the words it
//! was decoded from*. The cache is owned by [`Sram`](crate::Sram)
//! itself, so all three write funnels (`write_u32`/`write_u16`/
//! `write_u8`) and the boot path (`load_words`) invalidate without any
//! cooperation from callers; there is no way to mutate SRAM bytes
//! without the cache seeing it.
//!
//! # Invalidation rule
//!
//! A store touching word index `w` clears the entries at `w` and
//! `w - 1`: the entry *at* `w` was decoded from word `w` (and possibly
//! `w + 1`, which the store did not change), and the only other entry
//! that can read word `w` is a two-word instruction starting at `w - 1`.
//! Clearing an entry that did not actually depend on the written word
//! costs one refill and nothing else, so data stores outside cached code
//! cost two bounds-checked byte writes (~nothing), and self-modifying
//! code is exact by construction.
//!
//! Decode *failures* are never cached: a trapping fetch re-runs the slow
//! path, which is irrelevant for performance (the thread is about to
//! die) and keeps entries unconditionally trustworthy.
//!
//! The cache is allocated lazily on the first fill, so the 480 idle
//! cores of a big machine never pay for it, and it can be disabled
//! entirely — per core via [`crate::Core::set_decode_cache`] or
//! machine-wide via `SystemBuilder::decode_cache(false)` — as the
//! cache-off reference the differential suites compare against.

use swallow_isa::{EnergyClass, Instr, Predecoded};

/// An empty (invalid) slot: `words == 0` never occurs in a real entry.
const EMPTY: Predecoded = Predecoded {
    instr: Instr::Nop,
    words: 0,
    issue_cycles: 0,
    class: EnergyClass::Idle,
};

/// Lazily-filled map from SRAM word index to predecoded entry.
#[derive(Clone, Debug)]
pub struct DecodeCache {
    /// One slot per SRAM word; empty until the first fill (idle cores
    /// and disabled caches allocate nothing).
    entries: Box<[Predecoded]>,
    /// Slots to allocate on first fill (SRAM bytes / 4).
    words: usize,
    /// Exclusive upper bound of the word indices ever filled since the
    /// last full invalidation. A store at word `w` can only hit a live
    /// entry when `w <= filled_hi` (the entry at `w`, or a two-word
    /// entry at `w - 1`), so data stores above the code high-water mark
    /// cost exactly one compare.
    filled_hi: usize,
    enabled: bool,
}

impl DecodeCache {
    /// A cache for an SRAM of `bytes` bytes, honouring `enabled`.
    pub fn new(bytes: u32, enabled: bool) -> Self {
        DecodeCache {
            entries: Box::new([]),
            words: (bytes / 4) as usize,
            filled_hi: 0,
            enabled,
        }
    }

    /// Whether lookups and fills are active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the cache. Disabling drops every entry (and
    /// the backing allocation), so re-enabling starts cold.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.entries = Box::new([]);
            self.filled_hi = 0;
        }
    }

    /// Allocates the slot table up front (no-op when disabled or already
    /// allocated). Called at program load so the one-time `vec!` zeroing
    /// of 16 Ki slots happens at boot, not inside the measured hot loop;
    /// cores that never load a program never allocate.
    pub fn ensure_allocated(&mut self) {
        if self.enabled && self.entries.is_empty() {
            self.entries = vec![EMPTY; self.words].into_boxed_slice();
        }
    }

    /// The entry for word index `widx`, if cached.
    #[inline]
    pub fn lookup(&self, widx: usize) -> Option<Predecoded> {
        // An unallocated or disabled cache has no entries, so the
        // single `get` covers every off path.
        match self.entries.get(widx) {
            Some(e) if e.words != 0 => Some(*e),
            _ => None,
        }
    }

    /// Caches `entry` at word index `widx` (no-op when disabled).
    pub fn fill(&mut self, widx: usize, entry: Predecoded) {
        debug_assert!(entry.words == 1 || entry.words == 2);
        if !self.enabled {
            return;
        }
        self.ensure_allocated();
        if let Some(slot) = self.entries.get_mut(widx) {
            *slot = entry;
            self.filled_hi = self.filled_hi.max(widx + 1);
        }
    }

    /// Invalidates the entries that could have read word index `widx`:
    /// the entry at `widx` and a two-word instruction starting at
    /// `widx - 1`. Stores above the code high-water mark (`filled_hi`)
    /// provably hit nothing and return after one compare, so ordinary
    /// data stores cost ~nothing.
    #[inline]
    pub fn invalidate_word(&mut self, widx: usize) {
        if widx > self.filled_hi {
            return;
        }
        if let Some(e) = self.entries.get_mut(widx) {
            e.words = 0;
        }
        if widx > 0 {
            if let Some(e) = self.entries.get_mut(widx - 1) {
                e.words = 0;
            }
        }
    }

    /// Drops every entry (bulk rewrite: program load). Only the filled
    /// prefix needs clearing.
    pub fn invalidate_all(&mut self) {
        let hi = self.filled_hi.min(self.entries.len());
        for e in self.entries[..hi].iter_mut() {
            e.words = 0;
        }
        self.filled_hi = 0;
    }

    /// Number of live entries (test/observability hook).
    pub fn live_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.words != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_isa::{predecode, Reg};

    fn entry_of(instr: Instr) -> Predecoded {
        let enc = swallow_isa::encode(&instr).expect("encodes");
        predecode(enc.words()).expect("decodes")
    }

    #[test]
    fn fill_lookup_invalidate_round_trip() {
        let mut cache = DecodeCache::new(64, true);
        assert_eq!(cache.lookup(3), None);
        let nop = entry_of(Instr::Nop);
        cache.fill(3, nop);
        assert_eq!(cache.lookup(3), Some(nop));
        assert_eq!(cache.live_entries(), 1);
        cache.invalidate_word(3);
        assert_eq!(cache.lookup(3), None);
        assert_eq!(cache.live_entries(), 0);
    }

    #[test]
    fn invalidation_clears_a_spanning_predecessor() {
        let mut cache = DecodeCache::new(64, true);
        let wide = entry_of(Instr::Ldc {
            d: Reg::R0,
            imm: 0x1234_5678,
        });
        assert_eq!(wide.words, 2, "wide ldc spans two words");
        cache.fill(4, wide);
        // A store into the extension word (index 5) must kill the entry
        // at index 4.
        cache.invalidate_word(5);
        assert_eq!(cache.lookup(4), None);
    }

    #[test]
    fn disabled_cache_neither_fills_nor_allocates() {
        let mut cache = DecodeCache::new(64, false);
        cache.fill(0, entry_of(Instr::Nop));
        assert_eq!(cache.lookup(0), None);
        assert_eq!(cache.live_entries(), 0);
        cache.set_enabled(true);
        cache.fill(0, entry_of(Instr::Nop));
        assert!(cache.lookup(0).is_some());
        cache.set_enabled(false);
        assert_eq!(cache.lookup(0), None, "disabling drops entries");
    }

    #[test]
    fn invalidate_all_empties_the_cache() {
        let mut cache = DecodeCache::new(64, true);
        for i in 0..8 {
            cache.fill(i, entry_of(Instr::Nop));
        }
        assert_eq!(cache.live_entries(), 8);
        cache.invalidate_all();
        assert_eq!(cache.live_entries(), 0);
    }
}
