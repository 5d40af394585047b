//! Device configuration (Table III of the paper).
//!
//! [`Geometry`] describes the physical organization of the racetrack device;
//! [`DeviceConfig`] bundles it with the timing/energy constants and the
//! PIM-specific knobs (PIM bank count, duplicators per processor, bus segment
//! size). `*_default()` constructors reproduce the paper's configuration and
//! are cross-checked by unit tests (e.g. the 8 GiB total capacity).

use crate::energy::EnergyParams;
use crate::error::RmError;
use crate::timing::TimingParams;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Physical organization of a racetrack-memory device.
///
/// The paper's default (Table III) is a `bank-subarray-mat` hierarchy of
/// `32-64-16` with 256 KiB per mat and 512 save + 512 transfer tracks per
/// mat, for 8 GiB of total save-track capacity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of banks in the device.
    pub banks: u32,
    /// Number of subarrays per bank.
    pub subarrays_per_bank: u32,
    /// Number of mats per subarray.
    pub mats_per_subarray: u32,
    /// Save tracks (data-holding racetracks) per mat.
    pub save_tracks_per_mat: u32,
    /// Transfer tracks (non-destructive-read copies) per mat.
    pub transfer_tracks_per_mat: u32,
    /// Data domains per track (excluding reserved overhead domains).
    pub domains_per_track: u32,
    /// Access ports per save track.
    pub ports_per_track: u32,
}

impl Geometry {
    /// The paper's Table III geometry: 32 banks × 64 subarrays × 16 mats,
    /// 256 KiB per mat (512 save tracks × 4096 domains), 4 ports per track.
    pub fn paper_default() -> Self {
        Geometry {
            banks: 32,
            subarrays_per_bank: 64,
            mats_per_subarray: 16,
            save_tracks_per_mat: 512,
            transfer_tracks_per_mat: 512,
            domains_per_track: 4096,
            ports_per_track: 4,
        }
    }

    /// A small geometry for unit tests and examples: 2 banks × 4 subarrays ×
    /// 2 mats, 8 tracks × 64 domains. Fast to construct functionally.
    pub fn tiny() -> Self {
        Geometry {
            banks: 2,
            subarrays_per_bank: 4,
            mats_per_subarray: 2,
            save_tracks_per_mat: 8,
            transfer_tracks_per_mat: 8,
            domains_per_track: 64,
            ports_per_track: 4,
        }
    }

    /// Validates that every dimension is non-zero and ports fit on a track.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("banks", self.banks),
            ("subarrays_per_bank", self.subarrays_per_bank),
            ("mats_per_subarray", self.mats_per_subarray),
            ("save_tracks_per_mat", self.save_tracks_per_mat),
            ("domains_per_track", self.domains_per_track),
            ("ports_per_track", self.ports_per_track),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(RmError::InvalidConfig(format!("{name} must be non-zero")));
            }
        }
        if self.ports_per_track > self.domains_per_track {
            return Err(RmError::InvalidConfig(format!(
                "{} ports cannot fit on a {}-domain track",
                self.ports_per_track, self.domains_per_track
            )));
        }
        if !self.save_tracks_per_mat.is_multiple_of(8) {
            return Err(RmError::InvalidConfig(
                "save_tracks_per_mat must be a multiple of 8 so rows are whole bytes".into(),
            ));
        }
        Ok(())
    }

    /// Bytes per row: one domain per save track, eight domains per byte.
    #[inline]
    pub fn row_bytes(&self) -> u32 {
        self.save_tracks_per_mat / 8
    }

    /// Rows per mat (equal to the domains per track).
    #[inline]
    pub fn rows_per_mat(&self) -> u32 {
        self.domains_per_track
    }

    /// Save-track capacity of one mat in bytes.
    #[inline]
    pub fn mat_bytes(&self) -> u64 {
        self.row_bytes() as u64 * self.rows_per_mat() as u64
    }

    /// Save-track capacity of one subarray in bytes.
    #[inline]
    pub fn subarray_bytes(&self) -> u64 {
        self.mat_bytes() * self.mats_per_subarray as u64
    }

    /// Total device capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.subarray_bytes() * self.subarrays_per_bank as u64 * self.banks as u64
    }

    /// Total number of subarrays across all banks.
    #[inline]
    pub fn total_subarrays(&self) -> u32 {
        self.banks * self.subarrays_per_bank
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::paper_default()
    }
}

/// Which bus connects mats to the RM processor inside a subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BusKind {
    /// The paper's segmented domain-wall nanowire bus (shift-based transfer).
    #[default]
    DomainWall,
    /// A conventional electrical bus: every word crossing it pays an RM read
    /// at the source and an RM write at the destination (electromagnetic
    /// conversion). Used by the `StPIM-e` ablation platform.
    Electrical,
}

/// Complete device configuration: geometry, timing, energy and PIM knobs.
///
/// `Hash` is structural (f64 constants hash by bit pattern via the manual
/// impls on [`TimingParams`]/[`EnergyParams`]) so cache keys can be derived
/// without rendering the config through `Debug`.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Physical organization.
    pub geometry: Geometry,
    /// Operation latencies.
    pub timing: TimingParams,
    /// Operation energies.
    pub energy: EnergyParams,
    /// Banks whose subarrays contain RM processors (8 of 32 in the paper).
    pub pim_banks: u32,
    /// Memory-core clock in MHz (100 MHz in the paper).
    pub core_mhz: u32,
    /// Duplicators per RM processor (2 in the paper).
    pub duplicators: u32,
    /// Operand width in bits processed by the RM processor (8 in the paper).
    pub word_bits: u32,
    /// RM-bus segment size in domains (1024 default; Table V sweeps it).
    pub segment_domains: u32,
    /// Bus flavour inside PIM subarrays.
    pub bus: BusKind,
}

impl DeviceConfig {
    /// The paper's evaluated configuration (Table III).
    pub fn paper_default() -> Self {
        DeviceConfig {
            geometry: Geometry::paper_default(),
            timing: TimingParams::paper_default(),
            energy: EnergyParams::paper_default(),
            pim_banks: 8,
            core_mhz: 100,
            duplicators: 2,
            word_bits: 8,
            segment_domains: 1024,
            bus: BusKind::DomainWall,
        }
    }

    /// Validates geometry and PIM knobs.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::InvalidConfig`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        self.geometry.validate()?;
        if self.pim_banks > self.geometry.banks {
            return Err(RmError::InvalidConfig(format!(
                "{} PIM banks exceed the {} banks present",
                self.pim_banks, self.geometry.banks
            )));
        }
        if self.core_mhz == 0 {
            return Err(RmError::InvalidConfig("core_mhz must be non-zero".into()));
        }
        if self.duplicators == 0 {
            return Err(RmError::InvalidConfig(
                "at least one duplicator is required".into(),
            ));
        }
        if !matches!(self.word_bits, 8 | 16 | 32) {
            return Err(RmError::InvalidConfig(format!(
                "word_bits must be 8, 16 or 32 (got {})",
                self.word_bits
            )));
        }
        if self.segment_domains == 0 {
            return Err(RmError::InvalidConfig(
                "segment_domains must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// Duration of one memory-core clock cycle in nanoseconds.
    #[inline]
    pub fn cycle_ns(&self) -> f64 {
        1_000.0 / self.core_mhz as f64
    }

    /// Number of PIM subarrays (subarrays in PIM banks).
    #[inline]
    pub fn pim_subarrays(&self) -> u32 {
        self.pim_banks * self.geometry.subarrays_per_bank
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_8_gib() {
        let g = Geometry::paper_default();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn paper_mat_is_256_kib() {
        assert_eq!(Geometry::paper_default().mat_bytes(), 256 * 1024);
    }

    #[test]
    fn subarray_is_1_2048th_of_capacity() {
        // Paper §IV-C: a subarray holds 1/2048 of the total memory capacity.
        let g = Geometry::paper_default();
        assert_eq!(g.capacity_bytes() / g.subarray_bytes(), 2048);
        assert_eq!(g.total_subarrays(), 2048);
    }

    #[test]
    fn paper_default_has_512_pim_subarrays() {
        let c = DeviceConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.pim_subarrays(), 512);
    }

    #[test]
    fn cycle_is_10ns_at_100mhz() {
        assert_eq!(DeviceConfig::paper_default().cycle_ns(), 10.0);
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut g = Geometry::paper_default();
        g.banks = 0;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper_default();
        g.ports_per_track = g.domains_per_track + 1;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper_default();
        g.save_tracks_per_mat = 12;
        assert!(g.validate().is_err(), "non-byte-multiple rows rejected");
    }

    #[test]
    fn validate_rejects_bad_pim_knobs() {
        let mut c = DeviceConfig::paper_default();
        c.pim_banks = 33;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::paper_default();
        c.word_bits = 12;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::paper_default();
        c.duplicators = 0;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::paper_default();
        c.segment_domains = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn clone_preserves_config() {
        let c = DeviceConfig::paper_default();
        let c2 = c.clone();
        assert_eq!(c, c2);
    }
}
