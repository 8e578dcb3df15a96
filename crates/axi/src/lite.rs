//! AXI4-Lite register files.
//!
//! §7.1: "Control bus: enables software control over the deployed user
//! applications. This interface is built around an AXI4 Lite bus, which is
//! memory-mapped for each vFPGA directly into the user space ... On the
//! hardware, this interface connects to a set of control and status
//! registers, whose functionality is application-specific and user-defined."
//!
//! [`RegisterFile`] models such a block: 64-bit registers at 8-byte-aligned
//! offsets with per-register access modes.

/// Access semantics of one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read/write from software; the common CSR case.
    ReadWrite,
    /// Read-only from software (status registers written by hardware).
    ReadOnly,
    /// Write-1-to-clear: writing a bit pattern clears those bits (interrupt
    /// status registers).
    WriteOneToClear,
}

/// Errors raised by AXI4-Lite accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiteError {
    /// Access to an offset with no register behind it (`SLVERR`).
    Unmapped { offset: u64 },
    /// Unaligned access; the bus requires 8-byte alignment in this model.
    Unaligned { offset: u64 },
    /// Software write to a read-only register.
    ReadOnlyWrite { offset: u64 },
}

impl std::fmt::Display for LiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiteError::Unmapped { offset } => write!(f, "unmapped register offset {offset:#x}"),
            LiteError::Unaligned { offset } => write!(f, "unaligned access at {offset:#x}"),
            LiteError::ReadOnlyWrite { offset } => {
                write!(f, "write to read-only register {offset:#x}")
            }
        }
    }
}

impl std::error::Error for LiteError {}

#[derive(Debug, Clone)]
struct Register {
    value: u64,
    mode: AccessMode,
}

/// A block of 64-bit registers on an AXI4-Lite bus.
#[derive(Debug, Clone, Default)]
pub struct RegisterFile {
    /// Sorted by offset. Every kernel load builds a fresh file, so one
    /// contiguous allocation (a bank is reserved at once) keeps a partial
    /// reconfiguration from allocating, walking and freeing tree nodes.
    regs: Vec<(u64, Register)>,
}

impl RegisterFile {
    /// An empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a register at `offset` (8-byte aligned) with a reset value.
    ///
    /// # Panics
    ///
    /// Panics on an unaligned offset or a duplicate definition — both are
    /// design-time errors in the register map.
    pub fn define(&mut self, offset: u64, mode: AccessMode, reset: u64) -> &mut Self {
        assert_eq!(
            offset % 8,
            0,
            "register offset {offset:#x} not 8-byte aligned"
        );
        let Err(at) = self.position(offset) else {
            panic!("duplicate register at {offset:#x}");
        };
        self.regs
            .insert(at, (offset, Register { value: reset, mode }));
        self
    }

    /// Define `n` consecutive read/write registers starting at `base`.
    pub fn define_bank(&mut self, base: u64, n: u64) -> &mut Self {
        self.regs.reserve(n as usize);
        for i in 0..n {
            self.define(base + i * 8, AccessMode::ReadWrite, 0);
        }
        self
    }

    /// Number of defined registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True if no registers are defined.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Where `offset` is, or where it would be inserted.
    fn position(&self, offset: u64) -> Result<usize, usize> {
        self.regs.binary_search_by_key(&offset, |&(at, _)| at)
    }

    fn get(&self, offset: u64) -> Option<&Register> {
        let at = self.position(offset).ok()?;
        Some(&self.regs[at].1)
    }

    fn get_mut(&mut self, offset: u64) -> Option<&mut Register> {
        let at = self.position(offset).ok()?;
        Some(&mut self.regs[at].1)
    }

    fn check_align(offset: u64) -> Result<(), LiteError> {
        if !offset.is_multiple_of(8) {
            Err(LiteError::Unaligned { offset })
        } else {
            Ok(())
        }
    }

    /// Software read.
    pub fn read(&self, offset: u64) -> Result<u64, LiteError> {
        Self::check_align(offset)?;
        self.get(offset)
            .map(|r| r.value)
            .ok_or(LiteError::Unmapped { offset })
    }

    /// Software write, honoring the register's access mode.
    pub fn write(&mut self, offset: u64, value: u64) -> Result<(), LiteError> {
        Self::check_align(offset)?;
        let reg = self.get_mut(offset).ok_or(LiteError::Unmapped { offset })?;
        match reg.mode {
            AccessMode::ReadWrite => reg.value = value,
            AccessMode::ReadOnly => return Err(LiteError::ReadOnlyWrite { offset }),
            AccessMode::WriteOneToClear => reg.value &= !value,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_register_roundtrip() {
        let mut rf = RegisterFile::new();
        rf.define(0x00, AccessMode::ReadWrite, 0);
        rf.write(0x00, 0x6167_717a_7a76_7668).unwrap(); // The AES key from Code 1.
        assert_eq!(rf.read(0x00).unwrap(), 0x6167_717a_7a76_7668);
    }

    #[test]
    fn read_only_rejects_software_writes_but_not_hw() {
        let mut rf = RegisterFile::new();
        rf.define(0x08, AccessMode::ReadOnly, 7);
        assert_eq!(rf.read(0x08).unwrap(), 7);
        assert!(matches!(
            rf.write(0x08, 1),
            Err(LiteError::ReadOnlyWrite { .. })
        ));
        // Hardware (the kernel logic) updates a status register directly.
        rf.get_mut(0x08).unwrap().value = 42;
        assert_eq!(rf.read(0x08).unwrap(), 42);
    }

    #[test]
    fn w1c_clears_bits() {
        let mut rf = RegisterFile::new();
        rf.define(0x10, AccessMode::WriteOneToClear, 0b1011);
        rf.write(0x10, 0b0010).unwrap();
        assert_eq!(rf.read(0x10).unwrap(), 0b1001);
    }

    #[test]
    fn unmapped_and_unaligned_error() {
        let mut rf = RegisterFile::new();
        rf.define(0x00, AccessMode::ReadWrite, 0);
        assert!(matches!(rf.read(0x20), Err(LiteError::Unmapped { .. })));
        assert!(matches!(rf.read(0x04), Err(LiteError::Unaligned { .. })));
        assert!(matches!(
            rf.write(0x03, 0),
            Err(LiteError::Unaligned { .. })
        ));
    }

    #[test]
    fn define_bank_lays_out_consecutively() {
        let mut rf = RegisterFile::new();
        rf.define_bank(0x100, 4);
        assert_eq!(rf.len(), 4);
        for i in 0..4 {
            rf.write(0x100 + i * 8, i).unwrap();
        }
        assert_eq!(rf.read(0x118).unwrap(), 3);
    }

    #[test]
    fn definitions_in_any_order_resolve_by_offset() {
        let mut rf = RegisterFile::new();
        for (i, offset) in [0x18u64, 0x00, 0x28, 0x08].into_iter().enumerate() {
            rf.define(offset, AccessMode::ReadOnly, i as u64);
        }
        rf.define_bank(0x10, 1);
        rf.define(0x20, AccessMode::ReadWrite, 9);
        assert_eq!(rf.len(), 6);
        let values: Vec<_> = (0..6).map(|i| rf.get(i * 8).map(|r| r.value)).collect();
        assert_eq!(
            values,
            [Some(1), Some(3), Some(0), Some(0), Some(9), Some(2)]
        );
        assert!(rf.get(0x30).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate register")]
    fn duplicate_definition_panics() {
        let mut rf = RegisterFile::new();
        rf.define(0, AccessMode::ReadWrite, 0);
        rf.define(0, AccessMode::ReadOnly, 0);
    }
}
