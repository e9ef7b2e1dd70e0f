"""Everything end to end: tick CSV in, reports and plot data out.

Writes a small synthetic tick file, runs the whole pipeline through the same
entry point the ``tickpred run-all`` command uses, and tours the outputs.
Running it twice is a no-op: the second run finds every output as
``outputs.sha256`` records it and writes nothing.
"""

import json
import tempfile
from pathlib import Path

from tickpred.pipeline import PipelineConfig, run_all
from tickpred.synthetic import write_tick_fixture

with tempfile.TemporaryDirectory(prefix="tickpred_demo_") as tmp:
    work = Path(tmp)
    ticks = work / "ticks.csv"
    write_tick_fixture(ticks, codes=("000001", "000002", "600000"), days=2, ticks_per_day=400)
    print(f"wrote synthetic tick data to {ticks}")
    print("first rows:")
    for line in ticks.read_text().splitlines()[:4]:
        print("  " + line)

    config = PipelineConfig(
        inputs=(str(ticks),),
        intervals=(0.01, 0.05),
        min_length=100,
        min_states=5,
        seed=7,
        output_dir=str(work / "out"),
    )
    config_file = work / "run.cfg"
    config_file.write_text(config.to_text())
    print()
    print(f"config written to {config_file}; the CLI equivalent is:")
    print(f"  tickpred run-all --config {config_file}")

    print()
    print("running the pipeline...")
    manifest = run_all(config)
    print(f"done: {len(manifest.done)} stocks, failed: {len(manifest.failed)}")

    out = Path(config.output_dir)
    print()
    print("output tree:")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print("  " + p.relative_to(out).as_posix())

    print()
    print("summary report (arithmetic means per setting and model):")
    print(out.joinpath("reports", "summary.csv").read_text())

    payload = json.loads((out / "per_stock" / "000001.json").read_text())
    entry = payload["settings"]["T=0.05"]
    print("one per-stock record, setting T=0.05 for stock 000001:")
    print(f"  states: {entry['n_distinct']},  entropy: {entry['s_est']:.4f} bits,  ceiling: {entry['pi_max']:.4f}")
    for model, rep in entry["models"].items():
        print(f"  {model}: acc {rep['acc']:.4f}, rmse {rep['rmse']:.4f} CNY")

    print()
    print("re-running with the same config finds every output as outputs.sha256 records it,")
    print("so it computes and writes nothing; outputs are byte-identical for identical config and seed.")
    record = out / "outputs.sha256"
    stamp = record.stat().st_mtime_ns
    print(f"second run done: {len(run_all(config).done)} stocks reused, outputs.sha256 rewritten: {record.stat().st_mtime_ns != stamp}")
    print(f"outputs.sha256 lists {len(record.read_text().splitlines())} files; `sha256sum -c outputs.sha256` checks them")
