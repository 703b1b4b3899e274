//! Speed calibration for a shared machine.
//!
//! On the reference box the same code runs up to 1.8 times as slowly
//! from one ten-second window to the next, whatever it does (a fixed
//! Python loop pinned to one core swings by 30 %): other tenants of the
//! host take the core's resources, and the guest cannot see it (the
//! steal time it is told of is about 1 %). In a busy hour the plain
//! wall-clock medians of ten runs spread (quartile to quartile) by
//! 20-55 % of their median, which no bound could be held to.
//!
//! So every set-up and every timed operation runs between two
//! calibration slices: a fixed amount of arithmetic and memory traffic
//! on as many threads as the library may use. A timing is scaled by
//! `REFERENCE_SLICE_S / mean(slice before, slice after)`, which turns it
//! into seconds at the reference box's quiet speed. Interference that
//! slows the operation slows its neighbours too and cancels; a change
//! to the code under test does not touch the slices and shows in full.
//!
//! A slice walks three windows of one buffer - 16 KiB, 4 MiB and 16 MiB,
//! which on the reference box sit in L1, at the edge of L2 and in L3 -
//! for a third of its time each, so that it slows with the core, with
//! the cache it shares with a sibling thread and with the memory system,
//! as an operation does. Which windows, and that it takes a blend, was
//! measured: a diagnostic build timed five kinds of slice (ALU only,
//! 16 KiB, 1 MiB, 4 MiB, 16 MiB) around every operation of twenty runs
//! per workload. Every kind follows the operations' slow-downs (r =
//! 0.7-0.99), but the 16 KiB window moves by a quarter to a half of what
//! they move by and the 4 MiB window by up to twice as much; the first
//! version, the 4 MiB window alone, over-corrected `paper_grid_1k` by a
//! third of every slow-down. Of twenty blends this one kept the spread of the
//! calibrated medians lowest over both sets of runs (`op_s_p50` within
//! 6.4 % for every workload, the single windows 5.6-19.3 %, the plain
//! clock 11.1 %). The wall-clock numbers are kept in the result file
//! beside the calibrated ones.

use std::time::Instant;

/// What one slice takes on the reference box (2 cores) when it is quiet.
pub const REFERENCE_SLICE_S: f64 = 0.022;

/// `(words, steps)` of each window a slice walks.
const WINDOWS: [(usize, usize); 3] = [
    (1 << 12, 2_400_000),
    (1 << 20, 1_550_000),
    (1 << 22, 640_000),
];
/// Words of one thread's buffer: the largest window.
const BUFFER_WORDS: usize = WINDOWS[WINDOWS.len() - 1].0;

pub struct Calibrator {
    buffers: Vec<Vec<u32>>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            buffers: vec![vec![1; BUFFER_WORDS]; threads.max(1)],
        }
    }

    /// MiB the buffers hold resident, which `peak_rss_mb` leaves out.
    pub fn resident_mb(&self) -> f64 {
        (self.buffers.len() * BUFFER_WORDS * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64
    }

    /// Runs one slice on every thread at once; returns its seconds.
    pub fn slice(&mut self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (thread, buffer) in self.buffers.iter_mut().enumerate() {
                scope.spawn(move || std::hint::black_box(churn(buffer, thread as u64)));
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// Xorshift steps, each with one read-modify-write and one dependent
/// read at pseudo-random places of the window, window after window.
fn churn(buffer: &mut [u32], salt: u64) -> u64 {
    let mut x = 88_172_645_463_325_252_u64 + salt;
    let mut sum = 0u64;
    for (words, steps) in WINDOWS {
        let window = &mut buffer[..words];
        let mask = words - 1;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = x as usize & mask;
            window[at] = window[at].wrapping_add(x as u32);
            sum = sum.wrapping_add(u64::from(window[(at * 7 + 1) & mask]));
        }
    }
    sum
}

/// Seconds at reference speed of something that took `seconds` between
/// two slices of `before` and `after` seconds.
pub fn at_reference_speed(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * REFERENCE_SLICE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_half_as_fast_reads_the_same() {
        let slice = REFERENCE_SLICE_S;
        let quiet = at_reference_speed(0.2, slice, slice);
        let busy = at_reference_speed(0.4, 2.0 * slice, 2.0 * slice);
        assert!((quiet - 0.2).abs() < 1e-12);
        assert!((busy - quiet).abs() < 1e-12);
        // A slower operation on the same machine does not.
        assert!(at_reference_speed(0.22, slice, slice) > 1.09 * quiet);
    }

    #[test]
    fn slices_do_fixed_work() {
        let mut a = vec![1u32; BUFFER_WORDS];
        let mut b = vec![1u32; BUFFER_WORDS];
        assert_eq!(churn(&mut a, 3), churn(&mut b, 3));
        assert_eq!(a, b);
    }
}
