//! The QED **storage layer**: the actual §4 mechanism that defeats the
//! overflow problem.
//!
//! "The key mechanism employed to overcome the overflow problem is the
//! use of the separator 0 (2 bits) to separate the different codes
//! instead of explicitly storing the size of each variable code. The QED
//! codes may vary in size but the size of the separator 0 remains
//! constant. Each number in the QED code will always be represented by
//! two bits and due to the properties of the labelling scheme, the
//! numbers will never have the 2-bit value 00, which has been reserved
//! as the separator."
//!
//! This module implements that storage format bit-for-bit: a sequence of
//! QED codes packs into a bitstream of 2-bit symbols where `00`
//! terminates each code, and unpacking recovers the sequence without any
//! length fields — hence nothing that can overflow. For contrast,
//! [`pack_fixed_cells`] implements the CDBS-style fixed-cell layout whose
//! width *is* a length budget (and whose exhaustion is an error the
//! caller must handle by relabelling).

use crate::quaternary::QCode;
use crate::smallbuf::SmallBuf;

/// A packed bitstream of 2-bit symbols. Short streams (≤ 96 symbols)
/// stay inline in a [`SmallBuf`]; longer ones spill to the heap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolStream {
    bytes: SmallBuf,
    symbols: usize,
}

impl SymbolStream {
    fn push_symbol(&mut self, sym: u8) {
        debug_assert!(sym <= 3);
        let bit_off = (self.symbols * 2) % 8;
        if bit_off == 0 {
            self.bytes.push(sym << 6);
        } else if let Some(last) = self.bytes.last_mut() {
            // A non-zero bit offset means a partially filled byte exists.
            *last |= sym << (6 - bit_off);
        }
        self.symbols += 1;
    }

    fn symbol(&self, i: usize) -> u8 {
        let byte = self.bytes[(i * 2) / 8];
        let bit_off = (i * 2) % 8;
        (byte >> (6 - bit_off)) & 0b11
    }

    /// Total stored symbols (including separators).
    pub fn len_symbols(&self) -> usize {
        self.symbols
    }

    /// Total storage in bits.
    pub fn len_bits(&self) -> usize {
        self.symbols * 2
    }

    /// The raw packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Pack a sequence of QED codes with `00` separators — no length fields
/// anywhere, so no field can ever overflow.
pub fn pack_separated(codes: &[QCode]) -> SymbolStream {
    let mut out = SymbolStream::default();
    for code in codes {
        debug_assert!(code.is_valid_end(), "assigned codes end in 2 or 3");
        for &d in code.digits() {
            out.push_symbol(d);
        }
        out.push_symbol(0); // the separator
    }
    out
}

/// Unpack a `00`-separated stream back into codes. Returns `None` on a
/// malformed stream (trailing unterminated code).
pub fn unpack_separated(stream: &SymbolStream) -> Option<Vec<QCode>> {
    let mut out = Vec::new();
    let mut cur = QCode::empty();
    for i in 0..stream.len_symbols() {
        match stream.symbol(i) {
            0 => {
                if cur.is_empty() {
                    return None; // empty code: malformed
                }
                out.push(std::mem::take(&mut cur));
            }
            d => cur.push(d),
        }
    }
    if cur.is_empty() {
        Some(out)
    } else {
        None
    }
}

/// Error from the fixed-cell layout: a code exceeded the cell — the §4
/// overflow, as a storage-layer fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOverflow {
    /// Index of the offending code.
    pub index: usize,
    /// Its length in symbols.
    pub symbols: usize,
    /// The configured cell capacity in symbols.
    pub capacity: usize,
}

/// Pack codes into fixed-width cells of `cell_symbols` symbols each
/// (CDBS-style): short codes are padded with separators, and any code
/// longer than the cell **overflows** — the storage-layer counterpart of
/// [`crate::scheme::InsertReport::overflowed`].
pub fn pack_fixed_cells(
    codes: &[QCode],
    cell_symbols: usize,
) -> Result<SymbolStream, CellOverflow> {
    let mut out = SymbolStream::default();
    for (index, code) in codes.iter().enumerate() {
        if code.len() > cell_symbols {
            return Err(CellOverflow {
                index,
                symbols: code.len(),
                capacity: cell_symbols,
            });
        }
        for &d in code.digits() {
            out.push_symbol(d);
        }
        for _ in code.len()..cell_symbols {
            out.push_symbol(0);
        }
    }
    Ok(out)
}

/// Unpack a fixed-cell stream (cells of `cell_symbols`).
pub fn unpack_fixed_cells(stream: &SymbolStream, cell_symbols: usize) -> Option<Vec<QCode>> {
    if cell_symbols == 0 || !stream.len_symbols().is_multiple_of(cell_symbols) {
        return None;
    }
    let mut out = Vec::new();
    for cell in 0..stream.len_symbols() / cell_symbols {
        let mut code = QCode::empty();
        for i in 0..cell_symbols {
            match stream.symbol(cell * cell_symbols + i) {
                0 => break,
                d => code.push(d),
            }
        }
        if code.is_empty() {
            return None;
        }
        out.push(code);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quaternary::bulk_qed;
    use crate::stats::SchemeStats;

    fn q(s: &str) -> QCode {
        QCode::from_digits(s)
    }

    #[test]
    fn separated_round_trip() {
        let codes = vec![q("2"), q("12"), q("3332"), q("213")];
        let stream = pack_separated(&codes);
        assert_eq!(unpack_separated(&stream).unwrap(), codes);
        // size = symbols + one separator per code, 2 bits each
        let symbols: usize = codes.iter().map(|c| c.len()).sum();
        assert_eq!(stream.len_bits(), (symbols + codes.len()) * 2);
    }

    #[test]
    fn separated_handles_arbitrarily_long_codes() {
        // The point of the mechanism: a 10 000-symbol code needs no
        // length field, so nothing overflows.
        let digits: String = std::iter::repeat_n("13", 5000).collect::<String>() + "2";
        let long = q(&digits);
        let codes = vec![q("2"), long.clone(), q("3")];
        let stream = pack_separated(&codes);
        let back = unpack_separated(&stream).unwrap();
        assert_eq!(back[1], long);
    }

    #[test]
    fn separated_bulk_round_trip() {
        let mut stats = SchemeStats::default();
        let codes = bulk_qed(200, &mut stats);
        let stream = pack_separated(&codes);
        assert_eq!(unpack_separated(&stream).unwrap(), codes);
    }

    #[test]
    fn malformed_streams_rejected() {
        // trailing unterminated code
        let mut stream = SymbolStream::default();
        stream.push_symbol(2);
        assert_eq!(unpack_separated(&stream), None);
        // double separator (empty code)
        let mut stream = SymbolStream::default();
        stream.push_symbol(2);
        stream.push_symbol(0);
        stream.push_symbol(0);
        assert_eq!(unpack_separated(&stream), None);
    }

    #[test]
    fn fixed_cells_round_trip_until_overflow() {
        let codes = vec![q("2"), q("12"), q("332")];
        let stream = pack_fixed_cells(&codes, 4).unwrap();
        assert_eq!(stream.len_bits(), 3 * 4 * 2);
        assert_eq!(unpack_fixed_cells(&stream, 4).unwrap(), codes);

        // a code longer than the cell overflows — with precise blame
        let too_long = vec![q("2"), q("11132")];
        let err = pack_fixed_cells(&too_long, 4).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.symbols, 5);
        assert_eq!(err.capacity, 4);
    }

    #[test]
    fn fixed_cells_reject_bad_geometry() {
        let codes = vec![q("2")];
        let stream = pack_fixed_cells(&codes, 4).unwrap();
        assert_eq!(unpack_fixed_cells(&stream, 3), None, "wrong cell size");
        assert_eq!(unpack_fixed_cells(&stream, 0), None);
    }

    #[test]
    fn packed_bytes_golden_across_inline_spill_boundary() {
        // Golden byte layout pinned across the SmallBuf storage swap:
        // codes 2, 12 pack as symbols [2,0,1,2,0] → 10 00 01 10 | 00…
        let stream = pack_separated(&[q("2"), q("12")]);
        assert_eq!(stream.as_bytes(), &[0b10_00_01_10, 0b00_00_00_00]);
        assert_eq!(stream.len_symbols(), 5);
        // an inline stream (≤ 96 symbols / 24 bytes) and a spilled one
        // behave identically: same prefix bytes, same unpacking
        let short = bulk_qed(10, &mut SchemeStats::default());
        let long = bulk_qed(200, &mut SchemeStats::default());
        let (s1, s2) = (pack_separated(&short), pack_separated(&long));
        assert!(s2.len_bits() > 96 * 2, "long stream crossed the boundary");
        assert_eq!(
            s2.as_bytes()[..4],
            pack_separated(&long[..10.min(long.len())]).as_bytes()[..4],
            "packing is position-independent of later spill"
        );
        assert_eq!(unpack_separated(&s1).unwrap(), short);
        assert_eq!(unpack_separated(&s2).unwrap(), long);
    }

    #[test]
    fn separator_freedom_is_what_makes_this_work() {
        // Every digit of every valid code is 1..=3, so the 00 pattern
        // can only ever be a separator — the §4 invariant.
        let mut stats = SchemeStats::default();
        for code in bulk_qed(100, &mut stats) {
            assert!(code.digits().iter().all(|&d| d != 0));
        }
    }
}
