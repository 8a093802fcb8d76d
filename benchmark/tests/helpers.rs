//! The percentile helper against hand-computed cases, and the `/proc`
//! parsers against fixture strings.

use teeperf_benchmark::daemon::{parse_exit_summary, ExitSummary};
use teeperf_benchmark::procfs::{parse_io, parse_pid_stat, parse_sched_runtime_ms, PidStat};
use teeperf_benchmark::stats::{
    geomean, nearest_rank, nearest_rank_percentile, summarize, supported_percentile, supports, tail,
};

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
    let s = summarize(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.25, 4.5, 6.75, 8));
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
    let s = summarize(&[3.5]).unwrap();
    assert_eq!((s.q1, s.median, s.q3, s.n), (3.5, 3.5, 3.5, 1));
    assert!(summarize(&[]).is_none());
}

#[test]
fn geometric_mean() {
    assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
    assert!(geomean(&[]).is_none());
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // n = 1000: p99 is rank 990, ten samples beyond.
    assert_eq!(nearest_rank(1000, 0.99), 990);
    assert!(supports(1000, 0.99));
    // n = 999: p99 is rank 990 again, nine beyond.
    assert_eq!(nearest_rank(999, 0.99), 990);
    assert!(!supports(999, 0.99));
    // n = 200: p95 is rank 190, ten beyond; n = 199 has nine.
    assert!(supports(200, 0.95));
    assert!(!supports(199, 0.95));
    assert!(supports(20, 0.50));
    assert!(!supports(19, 0.50));
    assert_eq!(
        supported_percentile(1562, 0.99),
        0.99,
        "a fan-out segment's stamps"
    );
    assert_eq!(supported_percentile(195, 0.99), 0.90);
}

#[test]
fn the_tail_falls_to_the_highest_supported_percentile() {
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&sample, 0.99), Some((990.0, 0.99)));
    assert_eq!(
        tail(&sample, 0.95),
        Some((950.0, 0.95)),
        "never above the wanted percentile"
    );
    let sample: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(
        tail(&sample, 0.99),
        Some((950.0, 0.95)),
        "999 samples do not support p99"
    );
    let sample: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&sample, 0.99), Some((90.0, 0.90)));
    let sample: Vec<f64> = (1..=12).map(f64::from).collect();
    assert_eq!(
        tail(&sample, 0.99),
        Some((6.0, 0.50)),
        "too small for any tail: the median"
    );
    assert_eq!(tail(&[], 0.99), None);
}

#[test]
fn nearest_rank_ignores_the_ten_beyond_rule() {
    let pass = [3.0, 9.0, 1.0, 40.0, 2.0, 12.0, 14.0];
    assert_eq!(nearest_rank_percentile(&pass, 0.99), Some(40.0));
    assert_eq!(nearest_rank_percentile(&pass, 0.50), Some(9.0));
}

#[test]
fn pid_stat_is_parsed_past_a_hostile_command_name() {
    let line = "4242 (tee perf) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                731 209 0 0 20 0 2 0 9876543 12345678 2048 18446744073709551615 \
                1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    assert_eq!(
        parse_pid_stat(line),
        Some(PidStat {
            cpu_ticks: 731 + 209,
            rss_bytes: 2048 * 4096,
        })
    );
    assert_eq!(
        parse_pid_stat("4242 (teeperfd) S 1 2 3"),
        None,
        "a truncated line"
    );
    assert_eq!(parse_pid_stat("no parenthesis at all"), None);
}

#[test]
fn self_io_yields_the_two_syscall_counts() {
    let text = "rchar: 3980\nwchar: 17\nsyscr: 9\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n";
    assert_eq!(parse_io(text), Some((9, 4)));
    assert_eq!(parse_io("rchar: 1\nsyscr: 2\n"), None, "syscw is missing");
}

#[test]
fn sched_yields_the_main_threads_runtime() {
    let text = "teeperfd (4242, #threads: 2)\n-------------------\n\
                se.exec_start                                :       5026360.475911\n\
                se.vruntime                                  :             3.092415\n\
                se.sum_exec_runtime                          :           812.048228\n\
                nr_switches                                  :                  977\n";
    assert_eq!(parse_sched_runtime_ms(text), Some(812.048228));
    assert_eq!(parse_sched_runtime_ms("se.vruntime : 3.0\n"), None);
}

#[test]
fn the_daemons_exit_summary_yields_loops_and_requests() {
    let text = "teeperfd watching /dev/shm/x\nteeperfd: shut down (external: stdin closed)\n\
                loops 812 requests 433\nattached pids: 900000\nquarantined pids: -\n";
    assert_eq!(
        parse_exit_summary(text),
        Some(ExitSummary {
            loops: 812,
            requests: 433,
        })
    );
    assert_eq!(parse_exit_summary("teeperfd: shut down\n"), None);
}
