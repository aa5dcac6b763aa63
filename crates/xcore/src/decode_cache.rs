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
//! The table grows with the code: its length is one past the highest
//! word index a fetch has filled, so idle cores hold nothing and a
//! loaded core holds slots only up to the highest word it has executed,
//! not one per word of its SRAM. The cache can be disabled entirely —
//! per core via [`crate::Core::set_decode_cache`] or machine-wide via
//! `SystemBuilder::decode_cache(false)` — as the cache-off reference
//! the differential suites compare against.

use swallow_isa::{EnergyClass, Instr, Predecoded};

/// An empty (invalid) slot: `words == 0` never occurs in a real entry.
const EMPTY: Predecoded = Predecoded {
    instr: Instr::Nop,
    words: 0,
    issue_cycles: 0,
    class: EnergyClass::Idle,
};

/// Slots the table reserves at its first fill: a 1 KiB program's worth
/// (3 KiB). A restored core refills its table inside the measured run,
/// so a small program allocates once there instead of doubling up from
/// four slots.
const FIRST_SLOTS: usize = 256;

/// Lazily-filled map from SRAM word index to predecoded entry.
#[derive(Clone, Debug)]
pub struct DecodeCache {
    /// One slot per word index up to the highest one filled since the
    /// last full invalidation (empty for idle cores and disabled
    /// caches). A store at word `w` can only hit a live entry when
    /// `w <= entries.len()` (the entry at `w`, or a two-word entry at
    /// `w - 1`), so data stores above the code cost exactly one compare.
    entries: Vec<Predecoded>,
    /// SRAM size in words: fills at or beyond it are ignored.
    words: usize,
    enabled: bool,
}

impl DecodeCache {
    /// A cache for an SRAM of `bytes` bytes, honouring `enabled`.
    pub fn new(bytes: u32, enabled: bool) -> Self {
        DecodeCache {
            entries: Vec::new(),
            words: (bytes / 4) as usize,
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
            self.entries = Vec::new();
        }
    }

    /// The entry for word index `widx`, if cached.
    #[inline]
    pub fn lookup(&self, widx: usize) -> Option<Predecoded> {
        // An empty or disabled cache has no entries, so the single `get`
        // covers every off path.
        match self.entries.get(widx) {
            Some(e) if e.words != 0 => Some(*e),
            _ => None,
        }
    }

    /// Caches `entry` at word index `widx`, growing the table to reach
    /// it (no-op when disabled or when `widx` is past the SRAM).
    pub fn fill(&mut self, widx: usize, entry: Predecoded) {
        debug_assert!(entry.words == 1 || entry.words == 2);
        if !self.enabled || widx >= self.words {
            return;
        }
        if widx >= self.entries.len() {
            if self.entries.capacity() == 0 {
                self.entries.reserve_exact(FIRST_SLOTS.min(self.words));
            }
            self.entries.resize(widx + 1, EMPTY);
        }
        self.entries[widx] = entry;
    }

    /// Invalidates the entries that could have read word index `widx`:
    /// the entry at `widx` and a two-word instruction starting at
    /// `widx - 1`. Stores past the table's end provably hit nothing and
    /// return after one compare, so ordinary data stores cost ~nothing.
    #[inline]
    pub fn invalidate_word(&mut self, widx: usize) {
        if widx > self.entries.len() {
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

    /// Drops every entry (bulk rewrite: program load, restore). The
    /// allocation is kept for the refill.
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
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
    fn invalidate_all_empties_the_table_but_keeps_its_capacity() {
        let mut cache = DecodeCache::new(64, true);
        for i in 0..8 {
            cache.fill(i, entry_of(Instr::Nop));
        }
        assert_eq!(cache.live_entries(), 8);
        let capacity = cache.entries.capacity();
        cache.invalidate_all();
        assert_eq!(cache.live_entries(), 0);
        assert!(cache.entries.is_empty());
        assert_eq!(cache.entries.capacity(), capacity, "refills reuse it");
        for i in 0..8 {
            assert_eq!(cache.lookup(i), None);
        }
    }

    #[test]
    fn fills_grow_the_table_to_the_highest_index() {
        let mut cache = DecodeCache::new(64 * 1024, true);
        assert!(cache.entries.is_empty(), "a fresh cache holds nothing");
        let nop = entry_of(Instr::Nop);
        cache.fill(2, nop);
        assert_eq!(cache.entries.len(), 3);
        assert!(cache.entries.capacity() >= FIRST_SLOTS, "one allocation");
        // A lower fill lands inside the table without growing it.
        cache.fill(0, nop);
        assert_eq!(cache.entries.len(), 3);
        // A fill far above the code grows the table to reach it, and
        // the slots in between stay empty.
        cache.fill(100, nop);
        assert_eq!(cache.entries.len(), 101);
        assert_eq!(cache.live_entries(), 3);
        assert_eq!(cache.lookup(1), None);
        assert_eq!(cache.lookup(50), None);
        assert_eq!(cache.lookup(100), Some(nop));
        assert_eq!(cache.lookup(101), None, "past the end is a miss");
    }

    #[test]
    fn a_store_just_past_the_table_clears_a_spanning_entry() {
        let mut cache = DecodeCache::new(64, true);
        let wide = entry_of(Instr::Ldc {
            d: Reg::R0,
            imm: 0x1234_5678,
        });
        // The two-word entry at index 4 is the table's last slot, so its
        // extension word (index 5) is exactly `len`.
        cache.fill(4, wide);
        assert_eq!(cache.entries.len(), 5);
        cache.invalidate_word(5);
        assert_eq!(cache.lookup(4), None);
        // Stores further up hit nothing and leave live entries alone.
        cache.fill(4, wide);
        cache.invalidate_word(6);
        assert_eq!(cache.lookup(4), Some(wide));
    }

    #[test]
    fn fills_past_the_sram_are_ignored() {
        // 64 bytes hold 16 words: indices 16 and up do not exist.
        let mut cache = DecodeCache::new(64, true);
        let nop = entry_of(Instr::Nop);
        cache.fill(16, nop);
        cache.fill(usize::MAX, nop);
        assert!(cache.entries.is_empty());
        assert_eq!(cache.lookup(16), None);
        cache.fill(15, nop);
        assert_eq!(cache.entries.len(), 16);
        assert_eq!(cache.lookup(15), Some(nop));
        assert!(
            cache.entries.capacity() < FIRST_SLOTS,
            "a small SRAM reserves no more slots than it has words"
        );
    }

    #[test]
    fn a_disabled_cache_allocates_nothing() {
        let mut cache = DecodeCache::new(64 * 1024, false);
        for i in [0, 7, 1000] {
            cache.fill(i, entry_of(Instr::Nop));
        }
        cache.invalidate_word(0);
        cache.invalidate_all();
        assert_eq!(cache.entries.capacity(), 0);
        // Disabling a warm cache releases its table too.
        cache.set_enabled(true);
        cache.fill(1000, entry_of(Instr::Nop));
        assert!(cache.entries.capacity() > 1000);
        cache.set_enabled(false);
        assert_eq!(cache.entries.capacity(), 0);
    }
}
