"""nvme-cli-style tool for simulated SSDs.

The paper drives its device through nvme-cli: enabling/disabling FDP,
TRIMming before experiments, and polling ``nvme get-log`` for the host
and media byte counters that yield DLWA.  This tool exposes the same
workflow over a pickled :class:`~repro.ssd.device.SimulatedSSD`:

    python -m repro.tools.nvme create dev.pkl --superblocks 512 --fdp
    python -m repro.tools.nvme id-ctrl dev.pkl
    python -m repro.tools.nvme fdp-stats dev.pkl
    python -m repro.tools.nvme fdp-events dev.pkl --last 10
    python -m repro.tools.nvme smart dev.pkl
    python -m repro.tools.nvme scrub-status dev.pkl
    python -m repro.tools.nvme failslow-status dev.pkl
    python -m repro.tools.nvme format dev.pkl

Device state persists across invocations in the pickle file, so other
tooling (e.g. the cachebench runner with ``--device``) can interleave
with inspection, as nvme-cli does with a live device.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path
from typing import List, Optional

from ..faults.failslow import FailSlowConfig
from ..faults.latent import LatentErrorConfig
from ..ssd.device import SimulatedSSD
from ..ssd.geometry import Geometry

__all__ = ["main", "load_device", "save_device"]


def load_device(path: str) -> SimulatedSSD:
    """Unpickle a device created by the ``create`` subcommand."""
    with open(path, "rb") as fh:
        device = pickle.load(fh)
    if not isinstance(device, SimulatedSSD):
        raise SystemExit(f"{path} does not contain a simulated device")
    return device


def save_device(device: SimulatedSSD, path: str) -> None:
    """Persist device state for the next invocation."""
    tmp = Path(path).with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(device, fh)
    tmp.replace(path)


def _parse_slow_die(spec: str) -> tuple:
    """Parse a ``DIE:MULT`` spec like ``1:8`` into ``(die, multiplier)``."""
    try:
        die_str, mult_str = spec.split(":", 1)
        return int(die_str), float(mult_str)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected DIE:MULT (e.g. 1:8), got {spec!r}"
        ) from exc


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}"
        )
    return value


def _cmd_create(args: argparse.Namespace) -> int:
    latent = None
    if args.latent:
        latent = LatentErrorConfig(
            read_disturb_per_read=0.02,
            retention_rate=2e-4,
            wear_factor=0.05,
        )
    failslow = None
    try:
        if args.slow_die:
            failslow = FailSlowConfig(die_multipliers=dict(args.slow_die))
        geometry = Geometry(
            page_size=args.page_size,
            pages_per_block=args.pages_per_block,
            num_superblocks=args.superblocks,
            op_fraction=args.op,
            rated_pe_cycles=args.rated_pe_cycles,
        )
        device = SimulatedSSD(
            geometry,
            fdp=args.fdp,
            latent=latent,
            scrub=args.scrub,
            sched=True if (args.sched or failslow is not None) else None,
            failslow=failslow,
        )
    except ValueError as exc:
        args.parser.error(str(exc))
    save_device(device, args.device)
    extras = [flag for flag, on in (
        ("latent errors", args.latent),
        ("patrol scrub", args.scrub),
        ("scheduler", device.scheduler is not None),
        ("fail-slow overlay", failslow is not None),
    ) if on]
    print(
        f"created {'FDP' if args.fdp else 'conventional'} device at "
        f"{args.device}: {geometry.physical_bytes >> 20} MiB physical, "
        f"{geometry.logical_bytes >> 20} MiB logical, "
        f"{geometry.num_superblocks} reclaim units"
        + (f" ({', '.join(extras)})" if extras else "")
    )
    return 0


def _cmd_id_ctrl(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    g = device.geometry
    print(f"physical capacity : {g.physical_bytes >> 20} MiB")
    print(f"logical capacity  : {g.logical_bytes >> 20} MiB")
    print(f"page size         : {g.page_size} B")
    print(f"reclaim unit size : {g.superblock_bytes >> 10} KiB")
    print(f"device OP         : {g.op_fraction:.0%}")
    if device.fdp_config is None:
        print("fdp               : disabled")
    else:
        cfg = device.fdp_config
        print(
            f"fdp               : enabled ({cfg.num_ruhs} RUHs, "
            f"{cfg.num_reclaim_groups} RG, "
            f"{cfg.ruhs[0].ruh_type.name.lower()})"
        )
    return 0


def _cmd_fdp_stats(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    page = device.get_log_page()
    print(f"host bytes written      : {page.host_bytes_with_metadata}")
    print(f"media bytes written     : {page.media_bytes_written}")
    print(f"media bytes read for GC : {page.media_bytes_read_for_gc}")
    print(f"DLWA                    : {page.dlwa:.4f}")
    return 0


def _cmd_fdp_events(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    events = device.events
    print(f"media relocated events : {events.media_relocated_events}")
    print(f"media relocated pages  : {events.media_relocated_pages}")
    for event in events.recent(args.last):
        print(
            f"  {event.timestamp_ns:>14} ns {event.event_type.value:<24} "
            f"pages={event.pages} sb={event.superblock}"
        )
    return 0


def _cmd_smart(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    s = device.stats
    wear = device.wear_stats()
    print(f"host pages written  : {s.host_pages_written}")
    print(f"nand pages written  : {s.nand_pages_written}")
    print(f"gc pages migrated   : {s.gc_pages_migrated}")
    print(f"superblocks erased  : {s.superblocks_erased}")
    print(f"pages deallocated   : {s.pages_deallocated}")
    print(f"DLWA                : {s.dlwa:.4f}")
    # Byte-level ledger, the paper's DLWA numerator and denominator.
    print(f"host bytes written  : {s.host_pages_written * device.page_size}")
    print(f"nand bytes written  : {s.nand_pages_written * device.page_size}")
    print(f"max erase count     : {wear.max_erases}")
    print(f"mean erase count    : {wear.mean_erases:.2f}")
    print(f"free superblocks    : {device.ftl.free_superblocks}")
    print(f"occupancy           : {device.ftl.occupancy():.1%}")
    health = device.get_health_log()
    print(f"media errors        : {health.media_errors}")
    print(f"retired superblocks : {health.retired_superblocks}")
    print(f"available spare     : {health.available_spare_pct:.1f}%")
    print(f"percent used        : {health.percent_used:.1f}%")
    print(f"rated P/E cycles    : {health.rated_pe_cycles}")
    print(f"power cuts          : {health.power_cuts}")
    print(f"recoveries          : {health.recoveries}")
    print(f"torn pages discarded: {health.torn_pages_discarded}")
    print(f"reads corrected     : {health.reads_corrected}")
    print(f"soft decode retries : {health.soft_decode_retries}")
    print(f"read UECC errors    : {health.read_uecc_errors}")
    print(f"crc corrupt detected: {health.crc_detected_corruptions}")
    print(f"scrub passes        : {health.scrub_passes}")
    print(f"scrub pages scanned : {health.scrub_pages_scanned}")
    print(f"scrub pages relocated: {health.scrub_pages_relocated}")
    print(f"scrub blocks retired: {health.scrub_blocks_retired}")
    print(f"powered off         : {device.powered_off}")
    return 0


def _cmd_scrub_status(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    status = device.scrub_status()
    if status is None:
        print("patrol scrub        : disabled")
        return 0
    print("patrol scrub        : enabled")
    print(f"scan interval       : {status.interval_ns} ns")
    print(f"refresh threshold   : {status.refresh_threshold}")
    print(f"next scan due       : {status.next_due_ns} ns")
    print(f"patrol cursor       : superblock {status.cursor}")
    print(f"passes completed    : {status.passes_completed}")
    print(f"pages scanned       : {status.pages_scanned}")
    print(f"pages relocated     : {status.pages_relocated}")
    print(f"corrupt detected    : {status.corrupt_detected}")
    print(f"blocks retired      : {status.blocks_retired}")
    print(f"relocations deferred: {status.relocations_deferred}")
    if status.relocated_by_ruh:
        print("relocated pages by placement:")
        for (rg, ruh), pages in status.relocated_by_ruh:
            ruh_label = "none" if ruh is None else str(ruh)
            print(f"  rg={rg} ruh={ruh_label:<4}: {pages} pages")
    return 0


def _cmd_format(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    device.format()
    save_device(device, args.device)
    print("device formatted (full TRIM + counter reset)")
    return 0


def _cmd_power_cut(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    report = device.power_cut()
    save_device(device, args.device)
    print(
        f"power cut at {report.now_ns} ns: "
        f"{len(report.torn_writes)} torn writes, "
        f"{report.pages_discarded} pages discarded, "
        f"{report.journal_entries_lost} journal entries lost, "
        f"{report.checkpoints_dropped} checkpoints dropped"
    )
    print("device is offline; run `recover` to bring it back")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    report = device.recover()
    save_device(device, args.device)
    print(f"checkpoint seq          : {report.checkpoint_seq}")
    print(f"journal entries replayed: {report.journal_entries_replayed}")
    print(f"superblocks OOB-scanned : {report.superblocks_scanned}")
    print(f"OOB mappings applied    : {report.oob_mappings_applied}")
    print(f"stale mappings dropped  : {report.stale_mappings_dropped}")
    print(f"torn pages discarded    : {report.torn_pages_discarded}")
    print(f"mappings recovered      : {report.mappings_recovered}")
    print(f"write points reopened   : {len(report.write_points_reopened)}")
    return 0


def _cmd_failslow_status(args: argparse.Namespace) -> int:
    device = load_device(args.device)
    model = device.failslow
    if model is None:
        print("fail-slow overlay   : not attached")
        return 0
    status = model.status_dict()
    print(
        f"fail-slow overlay   : "
        f"{'ACTIVE' if status['enabled'] else 'attached (quiescent)'}"
    )
    print(f"host commands       : {device.scheduler.host_commands}")
    # Fold the per-channel table back to its dies.
    by_die: dict = {}
    for ch, mult in status["multipliers"].items():
        by_die.setdefault(ch // status["planes_per_die"], []).append(
            f"ch{ch}x{mult:g}"
        )
    if by_die:
        print("active die multipliers:")
        for die, labels in sorted(by_die.items()):
            print(f"  die {die:<3}: {', '.join(labels)}")
    else:
        print("active die multipliers: none")
    print(f"slowed commands     : {status['slowed_commands']}")
    print(f"slow extra ns       : {status['slow_extra_ns']}")
    print(f"background slowed   : {status['background_slowed']}")
    print(f"background extra ns : {status['background_extra_ns']}")
    print(f"runtime activations : {status['activations']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nvme",
        description="nvme-cli-style inspector for simulated FDP SSDs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    create = sub.add_parser("create", help="create a device file")
    create.add_argument("device")
    create.add_argument("--superblocks", type=int, default=512)
    create.add_argument("--pages-per-block", type=int, default=32)
    create.add_argument("--page-size", type=int, default=4096)
    create.add_argument("--op", type=float, default=0.07)
    create.add_argument("--rated-pe-cycles", type=int, default=3000)
    create.add_argument("--fdp", action="store_true")
    create.add_argument(
        "--latent", action="store_true",
        help="attach a default latent-error model (enables e2e CRCs)",
    )
    create.add_argument(
        "--scrub", action="store_true",
        help="attach a background patrol scrubber with default policy",
    )
    create.add_argument(
        "--sched", action="store_true",
        help="attach the multi-queue scheduler (timing overlay)",
    )
    create.add_argument(
        "--slow-die", type=_parse_slow_die, action="append", default=[],
        metavar="DIE:MULT",
        help=(
            "attach a fail-slow overlay degrading DIE by MULT (repeatable; "
            "implies --sched)"
        ),
    )
    create.set_defaults(func=_cmd_create, parser=create)

    for name, func, help_text in (
        ("id-ctrl", _cmd_id_ctrl, "show controller/geometry identity"),
        ("fdp-stats", _cmd_fdp_stats, "FDP statistics log page"),
        ("smart", _cmd_smart, "wear and write-amplification counters"),
        ("scrub-status", _cmd_scrub_status, "patrol-scrub progress"),
        ("failslow-status", _cmd_failslow_status,
         "fail-slow overlay: die multipliers and slowed commands"),
        ("format", _cmd_format, "reset the device to a clean state"),
        ("power-cut", _cmd_power_cut, "lose power: tear in-flight writes"),
        ("recover", _cmd_recover, "power-on recovery: rebuild the L2P map"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("device")
        p.set_defaults(func=func)

    events = sub.add_parser("fdp-events", help="FDP event log")
    events.add_argument("device")
    events.add_argument("--last", type=_count, default=10)
    events.set_defaults(func=_cmd_fdp_events)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
