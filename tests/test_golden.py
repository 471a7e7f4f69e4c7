"""Golden output hashes: every file every command writes, pinned by sha256.

A fixed small synthetic dataset (5 years x 120 rows) goes through all
seven commands with --plots, plus the fixed-K and single-year branches
of knn, once with flags and once with the same options in a --config
file.  Any change to an output byte, to the set of files written, or to
the order of the printed ``wrote`` lines fails here; so does a change to
the bytes of the input files that write_year_files produces.
Refactors and speedups must leave these hashes alone; a deliberate
change of output bytes must say so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cpu_dispatch

from pemskit.cli import main
from pemskit.ingest import write_year_files
from pemskit.synthetic import make_dataset

CASES = {
    "summary": ("summary", "--plots"),
    "correlate": ("correlate", "--plots"),
    "cluster-vars": ("cluster-vars", "--plots"),
    "screen": ("screen", "--plots", "--trees", "2", "--seed", "4"),
    "drift": ("drift", "--plots"),
    "knn": ("knn", "--plots", "--k-max", "3", "--seed", "2"),
    "knn-fixed-k": ("knn", "--plots", "--k", "5", "--seed", "2"),
    "knn-one-year": ("knn", "--plots", "--years", "2013", "--k-max", "3"),
    "report": ("report", "--plots", "--trees", "2", "--k-max", "3"),
}

GOLDEN: dict[str, dict[str, str]] = {
    "cluster-vars": {
        "cluster_summary.csv":
            "7eb2ccde675b93d43cff498ff8c87d8efe9adf78af73c13bdadd5e5feea95e27",
        "clusters.csv":
            "c0cafd46b8272ed9752329a660a6c2733923e931bbefe56843ba326023dc9e02",
    },
    "correlate": {
        "correlations.csv":
            "0b0c1b35be65eb09e5292ba23cebebfd0375c79fadfcf9ba399c0d0da112caea",
        "scatter_afdp_nox.svg":
            "f2219a0a4bc22169466fa928019c24ac2e24efb4713e8e7598a9cbc84d372a7e",
        "scatter_ah_nox.svg":
            "716ff2c9627dcfc3565f33e73e435cf07a6264181f1e23a69130ff76274f0fd5",
        "scatter_ap_nox.svg":
            "9004d4158df6bbb358c028bc9bde1cdb7b66207e1575d02c1799cda8b3ee6135",
        "scatter_at_nox.svg":
            "4f9618fbe431e46cca87f1b2d785594d8dc14537d44901aae341ba78ddbf5969",
        "scatter_cdp_nox.svg":
            "6036d9d401e2e7ec3eb7a4fe0279e59febf94129437efe03fec7d0c4aa47133f",
        "scatter_tat_nox.svg":
            "7f5385cbc7590803fd87d877f9b007cb5d115fc8b66cd70d6fa76925e3e2ddfb",
        "scatter_tep_nox.svg":
            "ad014b8933f93f772c37706e996281e42961589b9254a8f7dcdba75bd5f61e0e",
        "scatter_tey_nox.svg":
            "d45df65f6b8a062605fda526f1225d190bc499c32b6aca0977bce042d31ee826",
        "scatter_tit_nox.svg":
            "134aa60783c7d35cdfc74010530d9c96e484faf4ff845258207b4c8dc07ecc2e",
    },
    "drift": {
        "drift_centroids.csv":
            "6c46f25332e702b3a41570a3b1ba2b73b3a859a172e5b2e4d920122b2c22bfa1",
        "drift_fits.csv":
            "7e294e6cccb26e6cdec160602b14d92a618cfdae4b82eea7f355c670a2411df5",
        "drift_pc.svg":
            "143afb1b6f0080ca28e5ed01e80c66573a168e625d863fbce5b66e874e795c0f",
        "drift_r2.svg":
            "1edafd60715b499e060be4bb51f6f6f87ce89aa324f2584f35c202b4badb74bf",
        "drift_scores.csv":
            "cb5b1f2b7c5f7e79d8d86035782398d9725f065b94db1fb0e8b6e79429b48d36",
    },
    "knn": {
        "knn_actual_vs_predicted.svg":
            "753978994e0d5f6fc6c12e765ed692e9de57928a21a6661f7151d73d8204995f",
        "knn_k_curve.svg":
            "2ff4eb4c7843058cc0bd0c3c77f5ff77dcbd27d00b5c0b499235dd76815a174b",
        "knn_metrics.csv":
            "ce91d97427abc1053b6cabe2253c895ec1935fa51af7ca64ef216873c5c0dbdc",
        "knn_residuals.csv":
            "1e66f1e32fd03e02bf447597dac930f1bb35723d5f65148da6acdb0e10fe9158",
        "knn_residuals.svg":
            "eb308eaf383dbba5c4d8c0394e6d5af70bb5976e3a9f23612e46db25344089db",
        "knn_selection.csv":
            "b5a74f0b86445d1cb8069d225d55a28ed16f64b0542cba5db20da6031197593d",
        "model.json":
            "53e5b47928f44d5878acdf908bdc973566ff2e5c0b6b843e58bff9140ec7c7e2",
    },
    "knn-fixed-k": {
        "knn_actual_vs_predicted.svg":
            "260e210a0fb66efcce6330804af40f8ae062780a98eb3b80a6ed953bf797a0b7",
        "knn_metrics.csv":
            "0909f378ed45ec451a02ab52b4fa325a73de2e230a3759dfb2b1d38c44f64ad7",
        "knn_residuals.csv":
            "91aadb7350017601f6a6c63e77a273dfc723f5971709f64c0f78ca137e577165",
        "knn_residuals.svg":
            "2bcc155d6370efa2b89a5ddab109c16b95a7fdb35adffe840960292af9036fba",
        "model.json":
            "1d9acecd42a607447ad41295bc59af28b04388d1385aa9635e79b49f67ed5659",
    },
    "knn-one-year": {
        "knn_actual_vs_predicted.svg":
            "1b425bf97d62b77574596f83b2bc2e2950d18934beb76f05bc50c17aa7c1a20c",
        "knn_k_curve.svg":
            "11cbcc024349da584ca8b944c9d57650063aeb05f9a91403201d49a2d5e13e0e",
        "knn_metrics.csv":
            "597655ccd2f6258bbca1528f00ae3fc480f1b06d44c0364001d48b35381d1515",
        "knn_residuals.csv":
            "80263c122706e85c8c7a8aa2b32f333ba2e66cdccc624eec0590d6ed21e98908",
        "knn_residuals.svg":
            "eff4102da7ad981c9083927da215e6bcd3d904274a6d2b0d0bb37439fb2fed4a",
        "knn_selection.csv":
            "77aa33c18fa8eca7cfe421fa161ac34b8a03eb870082944264573b3144c8e79b",
        "model.json":
            "42f12efb19f8932578c80e785b793730dcd18748623b611a59f9589ae6c180f4",
    },
    "report": {
        "index.html":
            "51c8352c894e926b7d0b17b814ff56d9dcfd578cf3389eb767fde4e501c4b2f8",
        "report.json":
            "569a2b81100d04c8e54f04dccd06f7731bf3166cfee42b72b25cc3af2015cb2a",
    },
    "screen": {
        "screening.csv":
            "81f697a4806e87fc19fbe5121eff4ea8c12cd597e0614743a27c698e4f2b7c5f",
        "screening_portions.svg":
            "4f649becbe7057bbbbd82e7306edbe20adc54ad9c1df5fac1dae720d26c2625a",
    },
    "summary": {
        "hist_afdp.svg":
            "47db1227efd87e57cd56b9784999ec0bfbea3f4c5e32500c6ab11caafd7a0dfe",
        "hist_ah.svg":
            "ac98fba2835cddd8a9705749e0d3277d29127a22b84be247c6ba3004a73847c8",
        "hist_ap.svg":
            "8cb091dd24161031065d0d065a9ebe580da0ee141cbcf0db04404cc6325f34b3",
        "hist_at.svg":
            "532707548496531d49a8408a704672a1f409da09c338c351a382d44a92c9260e",
        "hist_cdp.svg":
            "55a3e6591018d8584844e0665ac4b15c5c6653d7ee667c0c50db55c5916a4aee",
        "hist_nox.svg":
            "a652f02150835676dcea8bb002abe4b00fe7edbd164855271fa85f6dc9b8aa5b",
        "hist_tat.svg":
            "0b032060cdd5ac8300b07745e8b489e2a3c1c4867489359c5bb41cf65dde9bd1",
        "hist_tep.svg":
            "b762af902941f693bffb4fd4d7ce11c461aa66afec200288182452dbb107d7af",
        "hist_tey.svg":
            "56be514885d5e4bfa95394e82d14b26f28077034776d9a69869cc7fab15a5942",
        "hist_tit.svg":
            "3168cc8a4e8ec17e773434a0f8f26a8c6cf57b76279a041e068dfa758b9c3b2a",
        "histograms.csv":
            "61252cbf88b38a0453ce2e9ef3bc54c0d7b129f9aa03f59a6cdc63901860c92f",
        "summary.csv":
            "0caddefae1113d0e463dd6701f03a602256c40691a80a47e6aa71ef1f1b69f4d",
    },
}


#: The files of each case in the order the `wrote` lines name them.
WRITE_ORDER: dict[str, list[str]] = {
    "cluster-vars": ["clusters.csv", "cluster_summary.csv"],
    "correlate": [
        "correlations.csv", "scatter_at_nox.svg", "scatter_ap_nox.svg",
        "scatter_ah_nox.svg", "scatter_afdp_nox.svg", "scatter_tit_nox.svg",
        "scatter_tat_nox.svg", "scatter_tep_nox.svg", "scatter_tey_nox.svg",
        "scatter_cdp_nox.svg"],
    "drift": [
        "drift_fits.csv", "drift_centroids.csv", "drift_scores.csv",
        "drift_pc.svg", "drift_r2.svg"],
    "knn": [
        "knn_metrics.csv", "knn_selection.csv", "knn_residuals.csv",
        "model.json", "knn_k_curve.svg", "knn_actual_vs_predicted.svg",
        "knn_residuals.svg"],
    "knn-fixed-k": [
        "knn_metrics.csv", "knn_residuals.csv", "model.json",
        "knn_actual_vs_predicted.svg", "knn_residuals.svg"],
    "knn-one-year": [
        "knn_metrics.csv", "knn_selection.csv", "knn_residuals.csv",
        "model.json", "knn_k_curve.svg", "knn_actual_vs_predicted.svg",
        "knn_residuals.svg"],
    "report": ["report.json", "index.html"],
    "screen": ["screening.csv", "screening_portions.svg"],
    "summary": [
        "summary.csv", "histograms.csv", "hist_at.svg", "hist_ap.svg",
        "hist_ah.svg", "hist_afdp.svg", "hist_tit.svg", "hist_tat.svg",
        "hist_tep.svg", "hist_tey.svg", "hist_cdp.svg", "hist_nox.svg"],
}


INPUT_GOLDEN = {
    "gt_2011.csv":
        "cfa8f1eb37d060a1b7a54739800939dbac75eb30e6f6b387c09c0f803a3354bf",
    "gt_2012.csv":
        "b68b7e563a9af9376595b4fa23342fe82d831fc3ae6b61c671b3f62138f1246d",
    "gt_2013.csv":
        "27e21090a8d05ba2c632defe2065ebb335dc8a96a7920c104e1d6853b45c3126",
    "gt_2014.csv":
        "da59e3352c2802a06468375bb058e0a88168b67cab45ee390630104848e6aa7e",
    "gt_2015.csv":
        "926e26cff8fa656b7c2cffb9cf45c37e5747e8b7078f51cbc8c9c5e96defb0f4",
}


def _hashes(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden_data")
    write_year_files(make_dataset(rows_per_year=120, seed=23, drift=0.25),
                     root)
    return root


def output_hashes(data_dir: Path, out_dir: Path,
                  argv: tuple[str, ...]) -> dict[str, str]:
    assert main([*argv, "--data-dir", str(data_dir),
                 "--out-dir", str(out_dir)]) == 0
    return _hashes(out_dir)


def config_lines(options: tuple[str, ...]) -> list[str]:
    """`key = value` lines for flags: `--k 5` -> `k = 5`, a bare
    `--plots` -> `plots = true`, `--no-leave-self-out` -> `... = false`."""
    lines, rest = [], list(options)
    while rest:
        key = rest.pop(0)[2:]
        if rest and not rest[0].startswith("--"):
            lines.append(f"{key} = {rest.pop(0)}")
        elif key.startswith("no-"):
            lines.append(f"{key[3:]} = false")
        else:
            lines.append(f"{key} = true")
    return lines


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_hashes(case, golden_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert output_hashes(golden_dir, out_dir, CASES[case]) == GOLDEN[case]
    assert capsys.readouterr().out.splitlines() == \
        [f"wrote {out_dir / name}" for name in WRITE_ORDER[case]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_hashes_from_config_file(case, golden_dir, tmp_path):
    command, *options = CASES[case]
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([f"data-dir = {golden_dir}",
                              f"out-dir = {out_dir}",
                              *config_lines(tuple(options))]) + "\n",
                   encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 0
    assert _hashes(out_dir) == GOLDEN[case]


def test_golden_input_hashes(golden_dir):
    assert _hashes(golden_dir) == INPUT_GOLDEN


#: Runs pemskit.cli.main on each argv of a JSON list; exits nonzero if any
#: run does.
_RUN_ALL = ("import json, sys\n"
            "from pemskit.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")


@pytest.mark.parametrize("env", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="Haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="Prescott"),
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="one-thread"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(cpu_dispatch())},
                 id="no-simd-dispatch"),
])
def test_knn_golden_hashes_on_other_blas_kernels(env, golden_dir, tmp_path):
    # the neighbor scan's matrix product only picks candidates; their
    # declared-order distances decide, so no byte depends on the BLAS
    # kernel, its thread count or the SIMD level of numpy's own loops
    if not all(env.values()):
        pytest.skip("numpy dispatches to no CPU feature of this machine")
    cases = [case for case in sorted(CASES) if CASES[case][0] == "knn"]
    runs = [[*CASES[case], "--data-dir", str(golden_dir),
             "--out-dir", str(tmp_path / case)] for case in cases]
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, **env})
    assert proc.returncode == 0, proc.stderr
    for case in cases:
        assert _hashes(tmp_path / case) == GOLDEN[case], case
