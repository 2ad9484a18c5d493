"""Tests for the nvme-cli-style and cachebench-style CLI tools."""

import dataclasses
import json

import pytest

from repro.tools import cachebench, nvme


@pytest.fixture
def device_file(tmp_path):
    path = str(tmp_path / "dev.pkl")
    rc = nvme.main(
        ["create", path, "--superblocks", "64", "--pages-per-block", "8",
         "--fdp"]
    )
    assert rc == 0
    return path


class TestNvmeCli:
    def test_create_and_id_ctrl(self, device_file, capsys):
        assert nvme.main(["id-ctrl", device_file]) == 0
        out = capsys.readouterr().out
        assert "fdp               : enabled (8 RUHs" in out

    def test_create_conventional(self, tmp_path, capsys):
        path = str(tmp_path / "conv.pkl")
        nvme.main(["create", path, "--superblocks", "64"])
        nvme.main(["id-ctrl", path])
        assert "fdp               : disabled" in capsys.readouterr().out

    def test_fdp_stats_reflect_traffic(self, device_file, capsys):
        device = nvme.load_device(device_file)
        device.write(0, npages=8)
        nvme.save_device(device, device_file)
        nvme.main(["fdp-stats", device_file])
        out = capsys.readouterr().out
        assert f"host bytes written      : {8 * 4096}" in out

    def test_smart_counters(self, device_file, capsys):
        nvme.main(["smart", device_file])
        out = capsys.readouterr().out
        assert "DLWA                : 1.0000" in out
        assert "occupancy" in out

    def test_format_resets(self, device_file, capsys):
        device = nvme.load_device(device_file)
        device.write(0, npages=4)
        nvme.save_device(device, device_file)
        nvme.main(["format", device_file])
        nvme.main(["fdp-stats", device_file])
        out = capsys.readouterr().out
        assert "host bytes written      : 0" in out

    def test_fdp_events(self, device_file, capsys):
        device = nvme.load_device(device_file)
        for lba in range(device.geometry.pages_per_superblock + 1):
            device.write(lba)
        nvme.save_device(device, device_file)
        nvme.main(["fdp-events", device_file, "--last", "3"])
        out = capsys.readouterr().out
        assert "media relocated events" in out
        assert "ru_switched" in out

    def test_load_rejects_garbage(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a device"}))
        with pytest.raises(SystemExit):
            nvme.load_device(str(path))

    def test_state_persists_across_invocations(self, device_file):
        device = nvme.load_device(device_file)
        device.write(0, npages=3)
        nvme.save_device(device, device_file)
        again = nvme.load_device(device_file)
        assert again.stats.host_pages_written == 3

    def test_failslow_status_not_attached(self, device_file, capsys):
        assert nvme.main(["failslow-status", device_file]) == 0
        assert "not attached" in capsys.readouterr().out

    def test_create_slow_die_and_status(self, tmp_path, capsys):
        path = str(tmp_path / "slow.pkl")
        rc = nvme.main(
            ["create", path, "--superblocks", "64", "--slow-die", "1:8"]
        )
        assert rc == 0
        assert "fail-slow overlay" in capsys.readouterr().out
        assert nvme.main(["failslow-status", path]) == 0
        out = capsys.readouterr().out
        assert "fail-slow overlay   : ACTIVE" in out
        assert "die 1" in out and "x8" in out
        # The overlay survives the pickle round trip.
        device = nvme.load_device(path)
        assert device.failslow is not None
        assert device.failslow.status_dict()["enabled"] is True

    def test_create_sched_quiescent_overlay(self, tmp_path, capsys):
        path = str(tmp_path / "sched.pkl")
        nvme.main(["create", path, "--superblocks", "64", "--sched"])
        capsys.readouterr()
        nvme.main(["failslow-status", path])
        assert "not attached" in capsys.readouterr().out

    def test_scrub_status_disabled(self, device_file, capsys):
        assert nvme.main(["scrub-status", device_file]) == 0
        assert "patrol scrub        : disabled" in capsys.readouterr().out

    def test_scrub_status_reports_a_pass(self, tmp_path, capsys):
        path = str(tmp_path / "scrub.pkl")
        nvme.main(
            ["create", path, "--superblocks", "64", "--pages-per-block", "8",
             "--fdp", "--latent", "--scrub"]
        )
        device = nvme.load_device(path)
        for lba in range(0, 4 * device.geometry.pages_per_superblock, 8):
            device.write(lba, npages=8)
        device.run_scrub_pass()
        nvme.save_device(device, path)
        capsys.readouterr()
        assert nvme.main(["scrub-status", path]) == 0
        out = capsys.readouterr().out
        assert "patrol scrub        : enabled" in out
        assert "passes completed    : 1" in out
        scanned = device.scrub_status().pages_scanned
        assert scanned > 0 and f"pages scanned       : {scanned}" in out

    def test_power_cut_then_recover(self, device_file, capsys):
        device = nvme.load_device(device_file)
        device.write(0, npages=24, payload="kept")
        nvme.save_device(device, device_file)
        capsys.readouterr()
        assert nvme.main(["power-cut", device_file]) == 0
        out = capsys.readouterr().out
        assert "0 torn writes" in out and "device is offline" in out
        assert nvme.load_device(device_file).powered_off
        assert nvme.main(["recover", device_file]) == 0
        out = capsys.readouterr().out
        assert "mappings recovered      : 24" in out
        device = nvme.load_device(device_file)
        assert not device.powered_off
        assert device.read_payload(0, 24) == ["kept"] * 24
        device.check_invariants()

    def test_slow_die_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            nvme.main(
                ["create", str(tmp_path / "x.pkl"), "--slow-die", "bogus"]
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fdp-events", "{dev}", "--last", "-1"], "--last"),
            (["create", "{new}", "--superblocks", "0"], "superblocks"),
            (["create", "{new}", "--op", "1.5"], "op_fraction"),
            (["create", "{new}", "--slow-die", "1:0.5"], "multipliers"),
            (["create", "{new}", "--slow-die=-1:4"], "non-negative"),
        ],
    )
    def test_bad_numbers_are_usage_errors(
        self, device_file, tmp_path, capsys, argv, message
    ):
        new = str(tmp_path / "new.pkl")
        argv = [a.format(dev=device_file, new=new) for a in argv]
        with pytest.raises(SystemExit) as exc:
            nvme.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro-nvme {argv[0]}: error: ")
        assert message in last and "Traceback" not in err


class TestCachebenchCli:
    SMALL = {
        "workload": {"num_ops": 30_000},
        "device": {"superblocks": 64},
    }

    def test_run_from_config_defaults(self):
        result = cachebench.run_from_config(self.SMALL)
        assert result.ops == 30_000
        assert result.dlwa >= 1.0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            cachebench.run_from_config({"nope": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            cachebench.run_from_config({"cache": {"wat": 1}})

    @pytest.mark.parametrize("values", [None, [1], 3])
    def test_non_object_section_rejected(self, values):
        with pytest.raises(ValueError, match="'workload'"):
            cachebench.run_from_config({"workload": values})

    def test_zero_ops_rejected(self):
        """``num_ops: 0`` used to replay the default 1,000,000 ops."""
        with pytest.raises(ValueError, match="num_ops"):
            cachebench.run_from_config({"workload": {"num_ops": 0}})

    def test_main_with_config_and_out(self, tmp_path, capsys):
        cfg = dict(self.SMALL)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.json"
        rc = cachebench.main(
            ["--config", str(config_path), "--out", str(out_path)]
        )
        assert rc == 0
        assert "DLWA" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["ops"] == 30_000
        assert len(data["interval_series"]) == 30_000 // 50_000 or True
        assert "throughput_kops" in data

    def test_fdp_flag_respected(self):
        non = cachebench.run_from_config(
            {**self.SMALL, "cache": {"fdp": False}}
        )
        assert non.fdp is False

    def test_workload_selection(self):
        result = cachebench.run_from_config(
            {
                "workload": {"name": "twitter", "num_ops": 20_000},
                "device": {"superblocks": 64},
            }
        )
        assert result.ops == 20_000

    @pytest.mark.parametrize("engine", ["set-associative", "kangaroo", "nemo"])
    def test_every_engine_runs_the_run_experiment_arm(self, engine):
        """Regression: Kangaroo and Nemo configs went through a second
        builder that reserved 16 metadata pages, not the 4 every other
        arm reserves, so the same config replayed a different arm."""
        from repro.bench.driver import ReplayConfig
        from repro.bench.runner import Scale, run_experiment

        got = cachebench.run_from_config(
            {
                "workload": {"num_ops": 20_000},
                "device": {"superblocks": 64},
                "cache": {"soc_engine": engine},
            }
        )
        want = run_experiment(
            "kvcache",
            fdp=True,
            utilization=1.0,
            soc_fraction=0.04,
            num_ops=20_000,
            seed=42,
            scale=Scale(num_superblocks=64),
            replay=ReplayConfig(),
            cache_overrides={"soc_engine": engine},
        )
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_result_serialization_roundtrip(self):
        result = cachebench.run_from_config(self.SMALL)
        data = cachebench.result_to_dict(result)
        encoded = json.dumps(data)
        assert json.loads(encoded)["dlwa"] == pytest.approx(result.dlwa)


class TestTracegenCli:
    def test_generates_and_profiles(self, tmp_path, capsys):
        from repro.tools import tracegen

        out = tmp_path / "t.csv.gz"
        rc = tracegen.main(
            ["kvcache", str(out), "--ops", "5000", "--keys", "1000",
             "--profile"]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "wrote 5000 requests" in captured
        assert "GET:SET" in captured
        from repro.workloads import Trace

        assert len(Trace.load(out)) == 5000

    def test_override_get_fraction(self, tmp_path):
        from repro.tools import tracegen
        from repro.workloads import Trace

        out = tmp_path / "t.csv.gz"
        tracegen.main(
            ["kvcache", str(out), "--ops", "4000", "--keys", "500",
             "--get-fraction", "0.0"]
        )
        assert Trace.load(out).op_counts() == {"set": 4000}

    def test_wo_rejects_get_fraction(self, tmp_path):
        from repro.tools import tracegen

        with pytest.raises(SystemExit):
            tracegen.main(
                ["wo-kvcache", str(tmp_path / "x.gz"), "--get-fraction",
                 "0.5"]
            )

    def test_rejects_bad_counts(self, tmp_path):
        from repro.tools import tracegen

        with pytest.raises(SystemExit):
            tracegen.main(["kvcache", str(tmp_path / "x.gz"), "--ops", "0"])

    def test_kangaroo_engine_via_cachebench_config(self):
        from repro.tools import cachebench

        result = cachebench.run_from_config(
            {
                "workload": {"num_ops": 30_000},
                "device": {"superblocks": 64},
                "cache": {"soc_engine": "kangaroo"},
            }
        )
        assert result.ops == 30_000
