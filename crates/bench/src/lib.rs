//! Shared support for the experiment bench targets.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (harness = false) that regenerates it and prints the same
//! rows/series. Set `ECCO_QUICK=1` to run reduced sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Returns `true` when reduced sweeps were requested via `ECCO_QUICK`.
///
/// The flag is **parsed**, not just probed: `ECCO_QUICK=0`, an empty
/// value or an unset variable all mean a full run, and anything else
/// (after trimming) enables quick mode. Every harness reading
/// `ECCO_QUICK` goes through this one parser, so `ECCO_QUICK=0 cargo
/// bench …` runs the full sweep instead of silently shrinking it.
pub fn quick_mode() -> bool {
    match std::env::var("ECCO_QUICK") {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
        Err(_) => false,
    }
}

/// Prints a fixed-width table: a header row, a rule, then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float to `d` decimals.
pub fn f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive entries.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geo mean of nothing");
    assert!(xs.iter().all(|&x| x > 0.0), "geo mean needs positives");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_of_constants() {
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn quick_mode_parses_the_value() {
        // `ECCO_QUICK=0` (and "" and unset) must mean a FULL run — an
        // `is_ok()` probe would treat any set value as quick mode and
        // silently shrink `ECCO_QUICK=0` sweeps. The previous value is
        // restored so a process that set it keeps it.
        let prev = std::env::var("ECCO_QUICK").ok();
        std::env::set_var("ECCO_QUICK", "1");
        assert!(quick_mode());
        std::env::set_var("ECCO_QUICK", "yes");
        assert!(quick_mode());
        std::env::set_var("ECCO_QUICK", " 1\n");
        assert!(quick_mode(), "padded truthy values must parse");
        std::env::set_var("ECCO_QUICK", "0");
        assert!(!quick_mode(), "ECCO_QUICK=0 must run the full sweep");
        std::env::set_var("ECCO_QUICK", " 0 ");
        assert!(!quick_mode(), "padded zero must run the full sweep");
        std::env::set_var("ECCO_QUICK", "");
        assert!(!quick_mode(), "empty value must run the full sweep");
        std::env::set_var("ECCO_QUICK", "  \t ");
        assert!(!quick_mode(), "whitespace-only must run the full sweep");
        std::env::remove_var("ECCO_QUICK");
        assert!(!quick_mode(), "unset must run the full sweep");
        if let Some(v) = prev {
            std::env::set_var("ECCO_QUICK", v);
        }
    }
}
