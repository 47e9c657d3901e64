"""Command-line front end.

Subcommands:

* ``fit``       fits difficulty models to a dataset and ranks them
* ``sigma``     reports tremor-spread estimates (catalog or computed from a log)
* ``simulate``  generates a synthetic tap log under the endpoint model
* ``datasets``  lists the bundled datasets

Exit codes: 0 success (including reports that flag unusable models),
1 internal/data error, 2 usage error.  Set FFITTS_NO_COLOR to disable
ANSI styling; click.echo keeps it only on a terminal.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import report as rpt
from .datamodel import (
    OUTLIER_RADIUS_MM,
    AxisMode,
    Dataset,
    Dimensionality,
    SigmaEstimate,
    SigmaMethod,
    TapTable,
    aggregate,
    first_taps,
)
from .errors import (
    EmptyDatasetError,
    FfittsError,
    ParseError,
    UnknownDatasetError,
    ValidationError,
)
from .fitting import compare
from .idmodels import Model
from .ingestion import (
    EMBEDDED_NAMES,
    embedded,
    load_input,
    load_trials_csv,
    opened,
    source_name,
    write_trials_csv,
)
from .simulator import MovementTimeModel, SimulatorConfig, config_metadata, generate


def _style(text: str, **kwargs) -> str:
    return text if os.environ.get("FFITTS_NO_COLOR") else click.style(text, **kwargs)


class _FiniteFloatRange(click.FloatRange):
    """A FloatRange that also rejects NaN and infinities, which pass its
    bound checks because every comparison with NaN is false."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


_outlier_mm_option = click.option(
    "--outlier-mm", type=_FiniteFloatRange(min=0, min_open=True),
    default=OUTLIER_RADIUS_MM, help="Tap-to-target distance beyond which taps are discarded.")
_dataset_option = click.option("--dataset", "dataset_name", help="Bundled dataset name.")
_format_option = click.option("--format", "fmt", type=click.Choice(["md", "csv", "json"]),
                              default="md")
_input_path = click.Path(exists=True, dir_okay=False, allow_dash=True)


@click.group(context_settings={"show_default": True})
def main():
    """Movement-time model fitting for touch pointing data."""


def _embedded_or_none(dataset_name, input_path) -> Dataset | None:
    """The bundled dataset named by --dataset, or None when --input is given."""
    if (dataset_name is None) == (input_path is None):
        raise click.UsageError("provide exactly one of --dataset or --input")
    if input_path is not None:
        return None
    try:
        return embedded(dataset_name)
    except UnknownDatasetError as exc:
        raise click.UsageError(str(exc)) from None


def _axis_mode(axis: str, dim: str | None) -> AxisMode:
    """The deviation axis of every spread: bivariate means y for 1D data."""
    mode = AxisMode(axis)
    return AxisMode.Y if mode is AxisMode.BIVARIATE and dim == "1d" else mode


def _resolve_dataset(dataset_name, input_path, dim, axis, outlier_mm) -> Dataset:
    dataset = _embedded_or_none(dataset_name, input_path)
    if dataset is not None:
        return dataset
    try:
        summaries = load_input(input_path)
        if isinstance(summaries, TapTable):
            summaries = aggregate(summaries, axis_mode=_axis_mode(axis, dim),
                                  outlier_radius_mm=outlier_mm)
        return Dataset(
            name=Path(source_name(input_path)).stem,
            dimensionality=Dimensionality(dim or "2d"),
            summaries=tuple(summaries),
        )
    except (ParseError, EmptyDatasetError) as exc:
        raise click.UsageError(str(exc)) from None
    except FfittsError as exc:
        # bad data (degenerate conditions etc.), not bad usage: exit 1
        raise click.ClickException(str(exc)) from None


def _resolve_sigma(token: str | None, dataset: Dataset) -> SigmaEstimate | None:
    if token is None:
        return None
    try:
        method = SigmaMethod(token)
    except ValueError:
        method = None
    if method is not None:
        try:
            return dataset.sigma_a(method)
        except KeyError as exc:
            raise click.UsageError(exc.args[0]) from None
    try:
        value = float(token)
    except ValueError:
        names = ", ".join(m.value for m in SigmaMethod if m is not SigmaMethod.USER_GIVEN)
        raise click.UsageError(
            f"--sigma-a must be a number in mm or one of: {names}"
        ) from None
    try:
        return SigmaEstimate(value, SigmaMethod.USER_GIVEN, "cli")
    except ValidationError as exc:
        raise click.UsageError(f"--sigma-a literal: {exc}") from None


def _parse_models(token: str) -> list[Model]:
    if token.strip().lower() == "all":
        return list(Model)
    try:
        models = [Model.parse(t) for t in token.split(",") if t.strip()]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if not models:
        raise click.UsageError("--models names no model")
    return models


@contextmanager
def _writing(path):
    """Turn a failed write of an output file into a one-line error naming it.

    A failed write of stdout points it at devnull, so that the flush at exit
    does not fail again (the note on SIGPIPE in Python's signal docs), and a
    reader that closes the stdout pipe early ends the command quietly with
    exit status 1.
    """
    try:
        yield
        if path == "-":
            sys.stdout.flush()
    except OSError as exc:
        if path == "-":
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                sys.exit(1)
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | Path | None):
    """Write text to the --out path, or to stdout when there is none or it is '-'."""
    out = out or "-"
    with _writing(out), opened(out, "w") as fh:
        fh.write(text)
    if out != "-":
        click.echo(_style(f"wrote {out}", fg="green"), err=True)


@main.command()
@_dataset_option
@click.option("--input", "input_path", type=_input_path,
              help="Tap log or aggregate CSV ('-' = stdin).")
@click.option("--dim", type=click.Choice(["1d", "2d"]), default=None,
              help="Dimensionality label for --input data (default 2d).")
@click.option("--models", default="all", help="Comma-separated m1..m7, or 'all'.")
@click.option("--sigma-a", "sigma_a_token", default=None,
              help="Tremor spread: catalog method name or a value in mm (m7).")
@click.option("--axis", type=click.Choice([a.value for a in AxisMode]), default="y",
              help="Deviation axis when aggregating a tap log.")
@_outlier_mm_option
@click.option("--cv/--no-cv", default=True, help="Leave-one-condition-out cross-validation.")
@_format_option
@click.option("--out", default=None, help="Output path (default stdout).")
def fit(dataset_name, input_path, dim, models, sigma_a_token, axis, outlier_mm,
        cv, fmt, out):
    """Fit difficulty models and rank them by the selection battery."""
    dataset = _resolve_dataset(dataset_name, input_path, dim, axis, outlier_mm)
    model_list = _parse_models(models)
    sigma_a = _resolve_sigma(sigma_a_token, dataset)
    if Model.M7_GIVEN_SIGMA_A in model_list and sigma_a is None:
        raise click.UsageError("--sigma-a is required when fitting m7")

    try:
        selection = compare(dataset, model_list, sigma_a=sigma_a, cv=cv)
    except FfittsError as exc:
        raise click.ClickException(str(exc)) from None

    if fmt == "json":
        text = rpt.to_json(rpt.fit_document(selection, dataset))
    elif fmt == "csv":
        text = rpt.render_comparison_csv(selection)
    else:
        text = rpt.render_fit_md(selection, dataset)
    _emit(text, out)
    if (out or "-") != "-" and fmt != "json":
        _write_side_files(selection, dataset, Path(out), fmt)


def _write_side_files(selection, dataset, out: Path, fmt):
    """Write the W_f matrix (csv only) and the plot-ready CSVs next to --out;
    json embeds the plots instead.  Where the intercept plot is undefined
    (see `report`), a note says so and its file is not written."""
    files = {"wf": rpt.render_wf_csv(dataset, rpt.wf_extra(selection))} if fmt == "csv" else {}
    files["fits"] = rpt.render_fits_plot_csv(selection)
    try:
        files["intercept"] = rpt.render_intercept_plot_csv(dataset)
    except ValidationError as exc:
        click.echo(f"note: {out.stem}.intercept.csv not written: {exc}", err=True)
    for kind, text in files.items():
        _emit(text, out.with_name(f"{out.stem}.{kind}.csv"))


@main.command()
@_dataset_option
@click.option("--input", "input_path", type=_input_path,
              help="Tap log CSV ('-' = stdin).")
@click.option("--method", type=click.Choice(["all", "calib", "intercept"]), default="all",
              help="Which estimators to run on --input data.")
@click.option("--instruction", type=click.Choice(["ra", "acc"]), default="ra",
              help="Calibration instruction tag for --input data.")
@click.option("--dim", type=click.Choice(["1d", "2d"]), default=None,
              help="Dimensionality of --input data; with 1d, --axis bivariate "
                   "means y for both rows.")
@click.option("--axis", type=click.Choice([a.value for a in AxisMode]), default="y",
              help="Deviation axis of --input data; the calibration row is "
                   "bivariate only with bivariate and not --dim 1d.")
@_outlier_mm_option
@click.option("--alpha", type=_FiniteFloatRange(0, 1, min_open=True, max_open=True),
              default=0.05, help="Normality-test significance level.")
@_format_option
@click.option("--out", default=None)
def sigma(dataset_name, input_path, method, instruction, dim, axis, outlier_mm,
          alpha, fmt, out):
    """Report tremor-spread estimates with a normality diagnostic.

    The --input calibration row is bivariate with --axis bivariate unless
    --dim 1d, else the univariate SD along --axis.  With --dim 1d,
    bivariate means y for both rows.
    """
    dataset = _embedded_or_none(dataset_name, input_path)
    if dataset is not None:
        source, rows = dataset_name, rpt.catalog_sigma_rows(dataset)
    else:
        source = source_name(input_path)
        try:
            taps = first_taps(load_trials_csv(input_path), outlier_mm)
        except (ParseError, EmptyDatasetError) as exc:
            raise click.UsageError(str(exc)) from None
        calib, intercept = SigmaMethod(f"calib-{instruction}"), SigmaMethod.INTERCEPT_FITTS
        estimators = {"all": (calib, intercept), "calib": (calib,), "intercept": (intercept,)}
        rows = rpt.sigma_rows(taps, estimators[method], _axis_mode(axis, dim), alpha)

    if fmt == "json":
        text = rpt.to_json(rpt.sigma_document(source, rows))
    elif fmt == "csv":
        text = rpt.render_sigma_csv(rows)
    else:
        text = rpt.render_sigma_md(source, rows)
    _emit(text, out)


@main.command()
@click.option("--alpha", type=float, required=True,
              help="Width-proportional variance coefficient.")
@click.option("--sigma-a", "sigma_a_mm", type=float, required=True,
              help="Absolute tremor spread in mm (0 allowed).")
@click.option("--widths", default="2,4,6,8,10")
@click.option("--amplitudes", default="20,30,45,60")
@click.option("--trials", type=int, default=50, help="Trials per condition.")
@click.option("--seed", type=int, default=SimulatorConfig.seed)
@click.option("--dim", type=click.Choice(["1d", "2d"]),
              default=SimulatorConfig.dimensionality.value)
@click.option("--mt-a", type=float, default=MovementTimeModel.a_ms)
@click.option("--mt-b", type=float, default=MovementTimeModel.b_ms_per_bit)
@click.option("--mt-noise", type=float, default=MovementTimeModel.noise_sd_ms)
@click.option("--out", default="-", help="Output CSV path ('-' = stdout).")
def simulate(alpha, sigma_a_mm, widths, amplitudes, trials, seed, dim,
             mt_a, mt_b, mt_noise, out):
    """Generate a synthetic tap log; deterministic for a fixed seed."""
    try:
        width_list = tuple(float(w) for w in widths.split(","))
        amp_list = tuple(float(a) for a in amplitudes.split(","))
    except ValueError:
        raise click.UsageError("--widths/--amplitudes must be comma-separated numbers")
    try:
        config = SimulatorConfig(
            alpha=alpha,
            sigma_a_mm=sigma_a_mm,
            widths_mm=width_list,
            amplitudes_mm=amp_list,
            trials_per_condition=trials,
            seed=seed,
            dimensionality=Dimensionality(dim),
            mt_model=MovementTimeModel(mt_a, mt_b, mt_noise),
        )
        taps = generate(config)
    except FfittsError as exc:
        raise click.UsageError(str(exc)) from None

    with _writing(out):
        write_trials_csv(taps, out, metadata=config_metadata(config))
    if out != "-":
        click.echo(_style(f"wrote {out} ({len(taps)} taps)", fg="green"), err=True)


@main.command()
def datasets():
    """List the bundled datasets and their tremor-spread catalogs."""
    for name in EMBEDDED_NAMES:
        ds = embedded(name)
        amps = sorted({s.condition.amplitude_mm for s in ds.summaries})
        widths = sorted({s.condition.width_mm for s in ds.summaries})
        click.echo(_style(name, bold=True))
        click.echo(f"  dimensionality: {ds.dimensionality.value}")
        click.echo(f"  conditions: {len(ds.summaries)} "
                   f"(A in {[f'{a:g}' for a in amps]}, W in {[f'{w:g}' for w in widths]})")
        for est in ds.sigma_a_catalog:
            click.echo(f"  sigma_a [{est.method.label}]: {rpt.sig(est.sigma_a_mm, 3)} mm")


if __name__ == "__main__":
    main()
