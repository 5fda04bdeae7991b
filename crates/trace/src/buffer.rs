//! The sliding-window buffer map.
//!
//! UUSee peers exchange blocks of the live stream inside a sliding
//! window and advertise which blocks they hold via periodic buffer-map
//! exchanges (§3.1). A [`BufferMap`] is that advertisement: a window
//! start sequence number plus a bitmap.

/// A peer's buffer map: which segments of the sliding window it holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferMap {
    start: u64,
    len: u16,
    bits: Vec<u8>,
}

impl BufferMap {
    /// Creates an empty map whose window starts at `start` and spans
    /// `len` segments.
    pub fn new(start: u64, len: u16) -> Self {
        BufferMap {
            start,
            len,
            bits: vec![0; (len as usize).div_ceil(8)],
        }
    }

    /// First sequence number of the window.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Window length in segments.
    pub fn len(&self) -> u16 {
        self.len
    }

    /// Whether the window has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `seq` lies inside the window.
    pub fn in_window(&self, seq: u64) -> bool {
        seq >= self.start && seq < self.start + self.len as u64
    }

    /// Marks `seq` as held. Out-of-window sequence numbers are
    /// ignored (they arrive routinely around window advances).
    pub fn set(&mut self, seq: u64) {
        if !self.in_window(seq) {
            return;
        }
        let off = (seq - self.start) as usize;
        self.bits[off / 8] |= 1 << (off % 8);
    }

    /// Whether `seq` is held (false outside the window).
    pub fn has(&self, seq: u64) -> bool {
        if !self.in_window(seq) {
            return false;
        }
        let off = (seq - self.start) as usize;
        self.bits[off / 8] & (1 << (off % 8)) != 0
    }

    /// Slides the window forward so it starts at `new_start`,
    /// retaining the overlap. Does nothing when `new_start` is not
    /// ahead of the current start.
    pub fn advance(&mut self, new_start: u64) {
        if new_start <= self.start {
            return;
        }
        let mut next = BufferMap::new(new_start, self.len);
        let lo = new_start;
        let hi = self.start + self.len as u64;
        for seq in lo..hi {
            if self.has(seq) {
                next.set(seq);
            }
        }
        *self = next;
    }

    /// Number of held segments.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Fraction of the window held, in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count() as f64 / self.len as f64
    }

    /// Length of the contiguous run of held segments at the start of
    /// the window — the playable prefix.
    pub fn contiguous_prefix(&self) -> u16 {
        let mut n = 0;
        while n < self.len && self.has(self.start + n as u64) {
            n += 1;
        }
        n
    }

    /// Sequence numbers held by `other` but missing here — the
    /// request candidates against one partner.
    pub fn missing_from(&self, other: &BufferMap) -> Vec<u64> {
        let lo = self.start.max(other.start);
        let hi = (self.start + self.len as u64).min(other.start + other.len as u64);
        (lo..hi).filter(|&s| other.has(s) && !self.has(s)).collect()
    }

    /// Raw bitmap bytes (for wire encoding).
    pub fn raw_bits(&self) -> &[u8] {
        &self.bits
    }

    /// Rebuilds a map from raw parts, as decoded off the wire.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than `len` requires.
    pub fn from_raw(start: u64, len: u16, bits: Vec<u8>) -> Self {
        assert!(
            bits.len() >= (len as usize).div_ceil(8),
            "bitmap too short for window length"
        );
        BufferMap { start, len, bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_empty() {
        let m = BufferMap::new(100, 64);
        assert_eq!(m.count(), 0);
        assert_eq!(m.fill_fraction(), 0.0);
        assert_eq!(m.contiguous_prefix(), 0);
        assert!(!m.has(100));
    }

    #[test]
    fn set_and_query() {
        let mut m = BufferMap::new(10, 16);
        m.set(10);
        m.set(12);
        m.set(25);
        assert!(m.has(10));
        assert!(!m.has(11));
        assert!(m.has(12));
        assert!(m.has(25));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn out_of_window_sets_are_ignored() {
        let mut m = BufferMap::new(10, 16);
        m.set(9);
        m.set(26);
        assert_eq!(m.count(), 0);
        assert!(!m.has(9));
        assert!(!m.has(26));
    }

    #[test]
    fn advance_retains_overlap() {
        let mut m = BufferMap::new(0, 8);
        for s in 0..8 {
            m.set(s);
        }
        m.advance(4);
        assert_eq!(m.start(), 4);
        assert_eq!(m.count(), 4);
        assert!(m.has(4) && m.has(7));
        assert!(!m.has(3)); // slid out
        assert!(!m.has(8)); // not yet received
    }

    #[test]
    fn advance_backwards_is_noop() {
        let mut m = BufferMap::new(10, 8);
        m.set(11);
        m.advance(5);
        assert_eq!(m.start(), 10);
        assert!(m.has(11));
    }

    #[test]
    fn contiguous_prefix_stops_at_gap() {
        let mut m = BufferMap::new(0, 10);
        m.set(0);
        m.set(1);
        m.set(3);
        assert_eq!(m.contiguous_prefix(), 2);
    }

    #[test]
    fn fill_fraction_full_window() {
        let mut m = BufferMap::new(0, 10);
        for s in 0..10 {
            m.set(s);
        }
        assert!((m.fill_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(m.contiguous_prefix(), 10);
    }

    #[test]
    fn missing_from_respects_overlap() {
        let mut a = BufferMap::new(0, 8);
        a.set(0);
        a.set(1);
        let mut b = BufferMap::new(4, 8); // window 4..12
        for s in 4..10 {
            b.set(s);
        }
        // Overlap is 4..8; a holds none of it.
        assert_eq!(a.missing_from(&b), vec![4, 5, 6, 7]);
        a.set(5);
        assert_eq!(a.missing_from(&b), vec![4, 6, 7]);
    }

    #[test]
    fn disjoint_windows_have_no_candidates() {
        let a = BufferMap::new(0, 4);
        let mut b = BufferMap::new(100, 4);
        b.set(101);
        assert!(a.missing_from(&b).is_empty());
    }

    #[test]
    fn raw_roundtrip() {
        let mut m = BufferMap::new(7, 20);
        m.set(9);
        m.set(26);
        let back = BufferMap::from_raw(m.start(), m.len(), m.raw_bits().to_vec());
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_raw_validates_length() {
        let _ = BufferMap::from_raw(0, 64, vec![0; 2]);
    }
}
