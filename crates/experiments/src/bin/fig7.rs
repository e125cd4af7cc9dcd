//! **Figure 7** — Breakdown of a typical live-point (uncompressed),
//! compared with an AW-MRRL checkpoint and a conventional checkpoint.
//!
//! Paper numbers (8-way maxima): registers/TLBs ≈ 3 KB, branch
//! predictor ≈ 4 KB, L1I tags ≈ 8 KB, L1D tags ≈ 16 KB, L2 tags ≈ 46 KB,
//! memory data ≈ 16 KB — ≈ 142 KB total, vs ≈ 360 KB of memory data for
//! an AW-MRRL checkpoint and ≈ 105 MB for a conventional checkpoint.
//! Shape target: L2 tags dominate the live-point; the AW-MRRL
//! checkpoint's memory data dwarfs the live-point's; the conventional
//! image dwarfs both by orders of magnitude.

use spectral_core::{collect_live_state, CreationConfig, LivePointLibrary, SizeBreakdown};
use spectral_experiments::{fmt_bytes, load_cases, run_main, Args, ExpError, Report, Timer};
use spectral_stats::{SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;
use spectral_warming::mrrl_analyze;

fn main() -> std::process::ExitCode {
    run_main("fig7", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("fig7")?;
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_points = args.window_count(16);
    let threads = args.thread_count();
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("fig7", &benchmarks.join(","));

    report.line("== Figure 7: live-point size breakdown (uncompressed DER) ==");
    report.line(format!("benchmarks={} points/benchmark={}\n", cases.len(), n_points));

    let mut acc = SizeBreakdown::default();
    let mut aw_mem_acc = 0u64;
    let mut conventional_acc = 0u64;
    let mut compressed_acc = 0u64;
    let mut dict_acc = 0u64;
    let mut rows = Vec::new();

    let t = Timer::start();
    for case in &cases {
        let windows = design.windows(case.len, n_points, 77);
        let cfg = CreationConfig::for_machine(&machine).with_sample_size(n_points);
        let lib =
            LivePointLibrary::create_with_windows_parallel(&case.program, &cfg, &windows, threads)?;
        let b = lib.mean_breakdown(8)?;

        // Paged container with block-shared dictionaries: same records,
        // better ratio (the v2 bytes/point column).
        let v2_path = std::env::temp_dir().join(format!(
            "spectral_fig7_{}_{}.splp",
            std::process::id(),
            case.name()
        ));
        let summary = lib.save_v2(&v2_path, &args.v2_options())?;
        std::fs::remove_file(&v2_path).ok();
        let dict_bytes = summary.record_bytes / u64::from(summary.count.max(1));

        // AW-MRRL checkpoint model: architectural registers plus the
        // live-state of the (much longer) warming+detailed window.
        let analysis = mrrl_analyze(&case.program, &windows, 32, 0.999);
        let mut aw_mem = 0u64;
        let sample = windows.len().min(4);
        let stride = (windows.len() / sample).max(1);
        for (w, &warm) in windows.iter().zip(&analysis.warming_lens).step_by(stride).take(sample) {
            let ls =
                collect_live_state(&case.program, w.detail_start.saturating_sub(warm), w.end());
            aw_mem += ls.word_count() as u64 * 9 + 512;
        }
        aw_mem /= sample as u64;

        let conventional = lib.get(0)?.live_state.conventional_bytes;

        rows.push(vec![
            case.name().to_owned(),
            fmt_bytes(b.regs_tlb),
            fmt_bytes(b.bpred),
            fmt_bytes(b.l1i_tags),
            fmt_bytes(b.l1d_tags),
            fmt_bytes(b.l2_tags),
            fmt_bytes(b.memory_data),
            fmt_bytes(b.total()),
            fmt_bytes(lib.mean_point_bytes()),
            fmt_bytes(dict_bytes),
            fmt_bytes(aw_mem),
            fmt_bytes(conventional),
        ]);
        acc.regs_tlb += b.regs_tlb;
        acc.bpred += b.bpred;
        acc.l1i_tags += b.l1i_tags;
        acc.l1d_tags += b.l1d_tags;
        acc.l2_tags += b.l2_tags;
        acc.memory_data += b.memory_data;
        aw_mem_acc += aw_mem;
        conventional_acc += conventional;
        compressed_acc += lib.mean_point_bytes();
        dict_acc += dict_bytes;
    }
    manifest.phase("size_breakdown", t.secs());
    manifest.points_processed = Some(cases.len() as u64 * n_points);

    report.table(
        "",
        &[
            "benchmark",
            "regs+TLB",
            "bpred",
            "L1I tags",
            "L1D tags",
            "L2 tags",
            "mem data",
            "total",
            "compressed",
            "v2+dict",
            "AW-MRRL ckpt",
            "conventional",
        ],
        rows,
    );

    let n = cases.len() as u64;
    manifest.note("mean_live_point_bytes", (acc.total() / n).to_string());
    manifest.note("mean_compressed_bytes", (compressed_acc / n).to_string());
    manifest.note("mean_dict_compressed_bytes", (dict_acc / n).to_string());
    report.blank();
    report.line("suite averages (paper: 3K / 4K / 8K / 16K / 46K / 16K = ~142 KB; AW ~363 KB; conventional ~105 MB):");
    report.line(format!(
        "  regs+TLB {}  bpred {}  L1I {}  L1D {}  L2 {}  mem {}  | total {}  compressed {}",
        fmt_bytes(acc.regs_tlb / n),
        fmt_bytes(acc.bpred / n),
        fmt_bytes(acc.l1i_tags / n),
        fmt_bytes(acc.l1d_tags / n),
        fmt_bytes(acc.l2_tags / n),
        fmt_bytes(acc.memory_data / n),
        fmt_bytes(acc.total() / n),
        fmt_bytes(compressed_acc / n),
    ));
    report.line(format!(
        "  paged v2 with block-shared dictionaries: {} / point",
        fmt_bytes(dict_acc / n)
    ));
    report.line(format!(
        "  AW-MRRL checkpoint {}   conventional checkpoint {}",
        fmt_bytes(aw_mem_acc / n),
        fmt_bytes(conventional_acc / n)
    ));
    report.line(format!(
        "  live-point : conventional ratio = 1 : {:.0}",
        conventional_acc as f64 / acc.total().max(1) as f64
    ));

    args.finish(&report, &mut manifest)
}
