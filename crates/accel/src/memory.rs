//! Table 8: on/off-chip memory comparison across accelerators.

/// Memory profile of one accelerator.
#[derive(Debug, Clone, Copy)]
pub struct MemoryProfile {
    /// Name.
    pub name: &'static str,
    /// HBM capacity (GB).
    pub hbm_gb: f64,
    /// HBM bandwidth (TB/s).
    pub hbm_tbs: f64,
    /// Scratchpad capacity (MB) — main + register files.
    pub scratchpad_mb: (f64, f64),
    /// Scratchpad bandwidth (TB/s).
    pub scratchpad_tbs: f64,
}

/// All Table 8 rows.
pub fn table8() -> Vec<MemoryProfile> {
    vec![
        MemoryProfile {
            name: "CraterLake",
            hbm_gb: 16.0,
            hbm_tbs: 1.0,
            scratchpad_mb: (256.0, 26.0),
            scratchpad_tbs: 84.0,
        },
        MemoryProfile {
            name: "ARK",
            hbm_gb: 16.0,
            hbm_tbs: 1.0,
            scratchpad_mb: (512.0, 76.0),
            scratchpad_tbs: 92.0,
        },
        MemoryProfile {
            name: "BTS",
            hbm_gb: 16.0,
            hbm_tbs: 1.0,
            scratchpad_mb: (512.0, 22.0),
            scratchpad_tbs: 330.0,
        },
        MemoryProfile {
            name: "SHARP",
            hbm_gb: 16.0,
            hbm_tbs: 1.0,
            scratchpad_mb: (180.0, 18.0),
            scratchpad_tbs: 72.0,
        },
        MemoryProfile {
            name: "Athena",
            hbm_gb: 16.0,
            hbm_tbs: 1.0,
            scratchpad_mb: (45.0, 15.0),
            scratchpad_tbs: 180.0,
        },
    ]
}

/// Derives the Athena scratchpad requirement from first principles: the
/// working set is a handful of ciphertexts plus the hot keys, all at the
/// small parameters (ciphertext ≈ 6 MB at `N = 2^15`, 12 limbs).
pub fn athena_working_set_mb(ciphertext_mb: f64) -> f64 {
    // 4 live ciphertexts (input, conv result, packed, FBS accumulators)
    // + relin key streamed in halves (PRNG regenerates the `a` parts)
    // + one Galois key.
    4.0 * ciphertext_mb + 1.5 * ciphertext_mb * 2.0 + ciphertext_mb * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn athena_scratchpad_at_least_4x_smaller() {
        let rows = table8();
        let athena = rows.last().expect("athena");
        let athena_total = athena.scratchpad_mb.0 + athena.scratchpad_mb.1;
        for r in &rows[..rows.len() - 1] {
            let total = r.scratchpad_mb.0 + r.scratchpad_mb.1;
            if r.name != "SHARP" {
                assert!(
                    total >= 4.0 * athena_total,
                    "{}: {total} vs Athena {athena_total}",
                    r.name
                );
            } else {
                // SHARP is the smallest baseline; still >3× Athena.
                assert!(total >= 3.0 * athena_total);
            }
        }
    }

    #[test]
    fn working_set_fits_scratchpad() {
        // Ciphertext at production parameters ≈ 6 MB.
        let ws = athena_working_set_mb(6.0);
        let rows = table8();
        let athena = rows.last().expect("athena");
        assert!(
            ws <= athena.scratchpad_mb.0 + athena.scratchpad_mb.1,
            "working set {ws} MB vs scratchpad"
        );
        assert!(ws > 30.0, "working set should need most of the 45 MB: {ws}");
    }
}
