//! A bitset worklist over small indices.
//!
//! Swallow machines are sparse in activity: a few dozen tokens cross
//! thousands of links, and most cores sit blocked on a channel input.
//! [`IndexSet`] marks the indices (link positions, node ids, core ids)
//! that have work, so a step visits exactly those in ascending order
//! instead of scanning the whole machine. The network fabric keeps its
//! link and loopback worklists in it; the board keeps its awake cores.

/// A fixed-capacity set of indices `0..capacity`, iterated in ascending
/// order. Membership changes are O(1); finding the next member costs one
/// word per 64 indices skipped.
///
/// ```
/// use swallow_sim::IndexSet;
///
/// let mut set = IndexSet::new(100);
/// set.insert(70);
/// set.insert(3);
/// assert_eq!(set.iter().collect::<Vec<_>>(), [3, 70]);
/// set.fill();
/// assert_eq!(set.len(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct IndexSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl IndexSet {
    /// An empty set over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `0..capacity` (rounded up to a word).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i` (no-op when present).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `0..capacity` (rounded up to a word).
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity, "index {i} beyond capacity");
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Removes `i` (no-op when absent).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `0..capacity` (rounded up to a word).
    pub fn remove(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit != 0 {
            self.words[word] &= !bit;
            self.len -= 1;
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Makes every index in `0..capacity` a member.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        let tail = self.capacity % 64;
        if let (Some(last), 1..) = (self.words.last_mut(), tail) {
            *last = !0u64 >> (64 - tail);
        }
        self.len = self.capacity;
    }

    /// The smallest member `>= from`. Callers that insert or remove while
    /// walking the set resume with `next_from(i + 1)`.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut word = from / 64;
        let mut bits = *self.words.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.words.get(word)?;
        }
    }

    /// Visits `items[i]` for every member `i` in ascending order and
    /// removes the members for which `keep` returns false. Runs of
    /// consecutive members are walked as slices, one bounds check per run
    /// instead of a search and an index per member.
    ///
    /// # Panics
    ///
    /// Panics if a member indexes past the end of `items`.
    pub fn retain_in<T>(&mut self, items: &mut [T], mut keep: impl FnMut(usize, &mut T) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let start = bits.trailing_zeros() as usize;
                let run = (bits >> start).trailing_ones() as usize;
                bits &= !((u64::MAX >> (64 - run)) << start);
                let base = w * 64 + start;
                for (j, item) in items[base..base + run].iter_mut().enumerate() {
                    if !keep(base + j, item) {
                        *word &= !(1u64 << (start + j));
                        self.len -= 1;
                    }
                }
            }
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter(),
            base: 0,
            bits: 0,
        }
    }
}

/// Ascending iterator over an [`IndexSet`]'s members, one word at a time.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Index of bit 0 of `bits`, plus 64 (the word after the one held).
    base: usize,
    /// Members of the current word not yet returned.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base += 64;
        }
        let i = self.base - 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::IndexSet;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let mut set = IndexSet::new(200);
        for i in [130, 0, 63, 64, 199, 64] {
            set.insert(i);
        }
        assert_eq!(set.len(), 5);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        assert!(set.contains(130) && !set.contains(131));
        set.remove(63);
        set.remove(63);
        assert_eq!(set.iter().count(), 4);
        assert_eq!(set.next_from(1), Some(64));
        assert_eq!(set.next_from(131), Some(199));
        assert_eq!(set.next_from(200), None);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    fn retain_in_visits_members_in_order_and_drops_the_rejected() {
        let mut set = IndexSet::new(200);
        for i in [3, 64, 65, 130, 199] {
            set.insert(i);
        }
        let mut items: Vec<usize> = (0..200).map(|i| i * 10).collect();
        let mut seen = Vec::new();
        set.retain_in(&mut items, |i, item| {
            assert_eq!(*item, i * 10);
            *item += 1;
            seen.push(i);
            i % 2 == 1
        });
        assert_eq!(items[3], 31);
        assert_eq!(items[4], 40);
        assert_eq!(seen, [3, 64, 65, 130, 199]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 65, 199]);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn empty_capacity_has_no_members() {
        let mut set = IndexSet::new(0);
        assert_eq!(set.next_from(0), None);
        set.fill();
        assert!(set.is_empty());
    }

    #[test]
    fn fill_covers_exactly_the_capacity() {
        for capacity in [1, 63, 64, 65, 128, 480] {
            let mut set = IndexSet::new(capacity);
            set.insert(capacity / 2);
            set.fill();
            assert_eq!(set.len(), capacity);
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                (0..capacity).collect::<Vec<_>>()
            );
            set.remove(capacity - 1);
            assert_eq!(set.len(), capacity - 1);
            assert_eq!(set.next_from(capacity - 1), None);
            // Whole-word runs: every member visited once, multiples of 7
            // dropped.
            let mut visits = vec![0u32; capacity];
            set.retain_in(&mut visits, |i, v| {
                *v += 1;
                i % 7 != 0
            });
            assert!(visits[..capacity - 1].iter().all(|&v| v == 1));
            assert_eq!(visits[capacity - 1], 0);
            let kept: Vec<usize> = (0..capacity - 1).filter(|i| i % 7 != 0).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), kept);
            assert_eq!(set.len(), kept.len());
        }
    }
}
