//! Sparse byte stores.
//!
//! The simulated memories can be as large as 16 GB (U55C HBM); allocating
//! that eagerly would be absurd. [`SparseBytes`] materializes fixed-size
//! blocks on first write and reads zeros elsewhere, matching the behaviour
//! of zero-initialized DRAM from the perspective of the experiments.

use std::collections::BTreeMap;

/// Materialization granularity.
const BLOCK: usize = 4096;

/// A sparse, zero-initialized byte array.
#[derive(Debug, Clone, Default)]
pub struct SparseBytes {
    blocks: BTreeMap<u64, Box<[u8; BLOCK]>>,
    capacity: u64,
}

impl SparseBytes {
    /// A store of `capacity` addressable bytes.
    pub fn new(capacity: u64) -> SparseBytes {
        SparseBytes {
            blocks: BTreeMap::new(),
            capacity,
        }
    }

    /// Addressable size.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), MemAccessError> {
        let end = addr
            .checked_add(len as u64)
            .ok_or(MemAccessError::OutOfRange {
                addr,
                len,
                capacity: self.capacity,
            })?;
        if end > self.capacity {
            return Err(MemAccessError::OutOfRange {
                addr,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Write `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemAccessError> {
        self.check(addr, data.len())?;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let block_idx = a / BLOCK as u64;
            let in_block = (a % BLOCK as u64) as usize;
            let n = (BLOCK - in_block).min(data.len() - off);
            let block = self
                .blocks
                .entry(block_idx)
                .or_insert_with(|| Box::new([0u8; BLOCK]));
            block[in_block..in_block + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Fill `out` with the bytes at `addr`.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) -> Result<(), MemAccessError> {
        self.check(addr, out.len())?;
        let mut off = 0usize;
        while off < out.len() {
            let a = addr + off as u64;
            let block_idx = a / BLOCK as u64;
            let in_block = (a % BLOCK as u64) as usize;
            let n = (BLOCK - in_block).min(out.len() - off);
            match self.blocks.get(&block_idx) {
                Some(block) => out[off..off + n].copy_from_slice(&block[in_block..in_block + n]),
                None => out[off..off + n].fill(0),
            }
            off += n;
        }
        Ok(())
    }
}

/// Out-of-range access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessError {
    /// The access window does not fit the store.
    OutOfRange {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: usize,
        /// Store capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for MemAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemAccessError::OutOfRange {
                addr,
                len,
                capacity,
            } => {
                write!(
                    f,
                    "access [{addr:#x}, +{len}) exceeds capacity {capacity:#x}"
                )
            }
        }
    }
}

impl std::error::Error for MemAccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(s: &SparseBytes, addr: u64, len: usize) -> Result<Vec<u8>, MemAccessError> {
        let mut out = vec![0xA5; len];
        s.read_into(addr, &mut out).map(|()| out)
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseBytes::new(1 << 30);
        assert_eq!(read(&s, 12345, 8).unwrap(), vec![0u8; 8]);
        assert!(s.blocks.is_empty(), "a read materializes nothing");
    }

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let mut s = SparseBytes::new(1 << 20);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        // Deliberately misaligned start that straddles three blocks.
        s.write(4000, &data).unwrap();
        assert_eq!(read(&s, 4000, data.len()).unwrap(), data);
        // Bytes around the window untouched.
        assert_eq!(read(&s, 3999, 1).unwrap(), vec![0]);
        assert_eq!(read(&s, 4000 + data.len() as u64, 1).unwrap(), vec![0]);
    }

    #[test]
    fn sparse_residency() {
        let mut s = SparseBytes::new(16 << 30); // "16 GB" HBM.
        s.write(8 << 30, &[1, 2, 3]).unwrap();
        assert_eq!(s.blocks.len(), 1, "one 4 KiB block is resident");
        assert_eq!(read(&s, 8 << 30, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = SparseBytes::new(100);
        assert!(s.write(98, &[0; 3]).is_err());
        assert!(read(&s, 0, 101).is_err());
        assert!(s.write(u64::MAX, &[0; 2]).is_err(), "overflow guarded");
        s.write(97, &[0; 3]).unwrap();
    }
}
