"""Golden bytes of the CSV contract.

Each run below writes small CSVs whose exact text is pinned here: the
trajectory, segment, final-params, readout and kappa tables as written
before the trajectory tables became columns, and the pretrain, prune,
spectrum and proxy tables as written by csv.writer before the one
row-template writer replaced it. The texts cover 17-significant-digit
floats, integer columns written with no ".0", inf and nan, a 0/1 mask
column, string columns and "\\r\\n" line ends. A change to the writer, or
to the numbers behind it, shows as a byte difference in the file named by
the failing case. A run's argv may name an earlier run's directory as
{root}/<run>.
"""

import pytest

from carlgd.cli import main

DIAG4 = ["--set", "model.kind=diag_quadratic",
         "--set", "model.coefficients=[1.0,4.0,2.0,0.5]",
         "--set", "init.params=[1.0,-0.2,0.1,2.0]", "--set", "pretrain.steps=0"]
DIAG2 = ["--set", "model.kind=diag_quadratic",
         "--set", "model.coefficients=[1.0,4.0]",
         "--set", "init.params=[1.0,0.5]", "--set", "pretrain.steps=0"]

# run name -> (argv without --out, exit code)
RUNS = {
    "simulate": (["simulate", "--model", "scalar_cubic", "--order", "2",
                  "--steps", "4", "--eta", "0.1", "--theta0", "0.5",
                  "--shots", "100", "--seed", "3"], 0),
    "pipeline": (["pipeline", *DIAG4, "--steps", "6", "--reupload", "3",
                  "--refine", "1", "--order", "2", "--fraction", "0.5",
                  "--eta", "0.1"], 0),
    # cut at its first Carleman step: one segment, kappa reads inf
    "diverged": (["pipeline", *DIAG2, "--steps", "4", "--reupload", "2",
                  "--eta", "1e9"], 2),
    "kappa": (["kappa", "--model", "scalar_cubic", "--order", "2",
               "--steps-list", "2,5"], 0),
    "pretrain": (["pretrain", *DIAG4[:6], "--steps", "3", "--eta", "0.1"], 0),
    "prune": (["prune", "--params", "{root}/pretrain/params.csv",
               "--fraction", "0.5"], 0),
    "direct": (["hessian", *DIAG4[:6],
                "--params", "{root}/prune/masked_params.csv"], 0),
    "lanczos": (["hessian", *DIAG4[:6], "--method", "lanczos",
                 "--lanczos-k", "4", "--probes", "2", "--bins", "3",
                 "--seed", "5"], 0),
    "proxy": (["proxy", "--spectrum", "{root}/lanczos/spectrum.csv",
               "--eta", "0.3", "--tmax", "3"], 0),
}

GOLDEN = {
    ("simulate", "trajectory.csv"): (
        "step,loss,accuracy,err_l2,err_linf,segment,phase\r\n"
        "0,0.140625,nan,0,0,0,carleman\r\n"
        "1,0.10486221313476562,nan,0,0,0,carleman\r\n"
        "2,0.080020235301554193,nan,0.0005615234374999889,"
        "0.0005615234374999889,0,carleman\r\n"
        "3,0.06198872625644123,nan,0.0011115811637500972,"
        "0.0011115811637500972,0,carleman\r\n"
        "4,0.04848826799783084,nan,0.0014022347309336491,"
        "0.0014022347309336491,0,carleman\r\n"),
    ("simulate", "params.csv"): (
        "step,param_0,exact_0\r\n"
        "0,0.5,0.5\r\n"
        "1,0.4375,0.4375\r\n"
        "2,0.38593749999999999,0.3853759765625\r\n"
        "3,0.3422265625,0.3411149813362499\r\n"
        "4,0.3044365234375,0.30303428870656635\r\n"),
    ("simulate", "readout.csv"): (
        "index,estimate,l2_error,linf_error\r\n"
        "0,0.39805453811042546,0.093618014672925465,0.093618014672925465\r\n"),
    ("pipeline", "trajectory.csv"): (
        "step,loss,accuracy,err_l2,err_linf,segment,phase\r\n"
        "0,1.5,nan,0,0,0,carleman\r\n"
        "1,1.3075000000000001,nan,0,0,0,carleman\r\n"
        "2,1.1425562500000002,nan,0,0,0,carleman\r\n"
        "3,1.0008123906249999,nan,1.1102230246251565e-16,"
        "1.1102230246251565e-16,0,carleman\r\n"
        "4,0.87865403628906247,nan,0,0,0,classical_refine\r\n"
        "5,0.77307615928837881,nan,0,0,1,carleman\r\n"
        "6,0.68157485590313704,nan,1.1102230246251565e-16,"
        "1.1102230246251565e-16,1,carleman\r\n"),
    ("pipeline", "final_params.csv"): (
        "index,value,mask\r\n"
        "0,0.53144100000000005,1\r\n"
        "1,0,0\r\n"
        "2,0,0\r\n"
        "3,1.47018378125,1\r\n"),
    ("pipeline", "segments.csv"): (
        "segment,start_step,kappa,kappa_method,D,upload_nnz,y0_norm\r\n"
        "0,0,6.3327065371566942,power_iteration,7,1,1\r\n"
        "1,4,4.3592322306988782,power_iteration,7,1,1\r\n"),
    ("diverged", "segments.csv"): (
        "segment,start_step,kappa,kappa_method,D,upload_nnz,y0_norm\r\n"
        "0,0,inf,power_iteration,3,1,1\r\n"),
    ("kappa", "kappa.csv"): (
        "T,kappa,method\r\n"
        "2,3.5332133477057095,dense_svd\r\n"
        "5,6.244832573501542,dense_svd\r\n"),
    ("pretrain", "params.csv"): (
        "index,value\r\n"
        "0,0.72900000000000009\r\n"
        "1,-0.043199999999999995\r\n"
        "2,0.051200000000000002\r\n"
        "3,1.71475\r\n"),
    ("prune", "masked_params.csv"): (
        "index,value,mask\r\n"
        "0,0.72900000000000009,1\r\n"
        "1,0,0\r\n"
        "2,0,0\r\n"
        "3,1.71475,1\r\n"),
    ("direct", "spectrum.csv"): (
        "index,eigenvalue\r\n"
        "0,0.5\r\n"
        "1,1\r\n"),
    ("lanczos", "spectrum.csv"): (
        "bin_left,bin_right,density\r\n"
        "0.49999999900000019,1.6666666663333336,0.42857142832653111\r\n"
        "1.6666666663333336,2.8333333336666673,0.21428571416326506\r\n"
        "2.8333333336666673,4.000000001000001,0.21428571416326506\r\n"),
    ("proxy", "proxy.csv"): (
        "t,E\r\n"
        "0,1\r\n"
        "1,0.17500000010000002\r\n"
        "2,0.053125000004999957\r\n"
        "3,0.017171875000187475\r\n"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each run's output directory, after checking its exit code."""
    root = tmp_path_factory.mktemp("golden")
    for name, (argv, rc) in RUNS.items():
        argv = [arg.format(root=root) for arg in argv]
        assert main(argv + ["--out", str(root / name)]) == rc, name
    return root


@pytest.mark.parametrize("run, name", list(GOLDEN))
def test_csv_bytes_match_golden(runs, run, name):
    assert (runs / run / name).read_bytes() == GOLDEN[run, name].encode()
