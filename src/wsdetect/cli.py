"""Command-line entry point. Every subcommand is a thin adapter over one
library operation.

Exit codes: 0 success / nothing detected, 3 when a scan or inspection
found at least one webshell, 1 on runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DETECTED = 3


def _print_table(rows: list[tuple[str, object]], out) -> None:
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}", file=out)


def _emit(payload: dict, args, out) -> None:
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        _print_table(list(payload.items()), out)


def _print_failures(failures, err, as_json=False) -> None:
    """One line per (path, reason) pair, naming the path once."""
    for path, reason in failures:
        print(json.dumps({"path": path, "error": reason}) if as_json
              else f"error: {path}: {reason}", file=err)


def _exit_code(detected, failed) -> int:
    """A file command's exit code: 3 if it detected something, else 1 if
    any input failed, else 0."""
    if detected:
        return EXIT_DETECTED
    return EXIT_ERROR if failed else EXIT_OK


# --- rules ------------------------------------------------------------

def _load_ruleset(path: str):
    from wsdetect.rulelang import load_rules_dir, load_rules_file

    p = Path(path)
    return load_rules_dir(p) if p.is_dir() else load_rules_file(p)


def cmd_rules_check(args, out, err) -> int:
    from wsdetect.rulelang import RuleSyntaxError

    failures = 0
    for path in args.files:
        try:
            ruleset = _load_ruleset(path)
        except (OSError, RuleSyntaxError) as exc:
            failures += 1
            # an error that names its rule file needs no second name
            named = isinstance(exc, RuleSyntaxError) and exc.path
            print(exc if named else f"{path}: {exc}", file=err)
            continue
        names = ", ".join(ruleset.rule_names())
        print(f"{path}: {len(ruleset.rules)} rule(s) ok ({names})", file=out)
    return EXIT_ERROR if failures else EXIT_OK


def cmd_rules_scan(args, out, err) -> int:
    from wsdetect.files import walk
    from wsdetect.rulelang import match_files

    ruleset = _load_ruleset(args.rules)
    paths = walk(args.root)
    if args.ext:
        extensions = {e.lstrip(".").lower() for e in args.ext}
        paths = [p for p in paths if p.suffix.lstrip(".").lower() in extensions]
    matched, failures = match_files(ruleset, paths)
    findings = [(path, names) for path, names in matched if names]
    for path, names in findings:
        if args.json:
            print(json.dumps({"path": path, "rules": names}), file=out)
        else:
            print(f"{path}: {', '.join(names)}", file=out)
    _print_failures(failures, err)
    return _exit_code(findings, failures)


# --- opcode -----------------------------------------------------------

def _load_vocab(language: str, vocab_path: str | None):
    from wsdetect.opcode import builtin_vocabulary, load_vocabulary

    if vocab_path:
        return load_vocabulary(vocab_path, language=language)
    return builtin_vocabulary(language)


def cmd_oci_extract(args, out, err) -> int:
    from wsdetect.opcode import vectorize_corpus, write_corpus_csv

    vocab = _load_vocab(args.language, args.vocab)
    items = [(path, args.label) for path in args.files]
    corpus = vectorize_corpus(items, args.language, vocab, args.max_length)
    _print_failures(corpus.failures, err)
    write_corpus_csv(corpus, args.out)
    print(f"{len(corpus.vectors)} vector(s) -> {args.out}"
          f" ({len(corpus.failures)} failure(s))", file=out)
    return _exit_code(False, corpus.failures)


# --- training ----------------------------------------------------------

def _labelled_dataset(csv_path: str):
    """Read a labelled feature CSV: (its cleaned cell count, its dataset)."""
    from wsdetect.flowmeter import label_to_class, read_csv
    from wsdetect.trafficmodel import TabularDataset

    table, cleaned_cells = read_csv(csv_path, labelled=True)
    labels = [label_to_class(label) for label in table.labels]
    return cleaned_cells, TabularDataset(table.categoricals, table.continuous, labels)


def _given(args, *names) -> dict:
    """The named flags that were given; the library defaults the rest."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _save_fit(model, history, args, out, **fields) -> int:
    """Save the trained model to `--out` and report the fit."""
    from wsdetect.tensornet import save_model

    save_model(model, args.out)
    final = history.epochs[-1] if history.epochs else None
    _emit({"model": args.out, **fields,
           "final_loss": round(final.loss, 6) if final else None,
           "final_accuracy": round(final.accuracy, 4) if final else None,
           "train_seconds": round(history.seconds, 6),
           "samples_per_s": round(final.samples_per_s, 1) if final else None},
          args, out)
    return EXIT_OK


def cmd_train_src(args, out, err) -> int:
    from wsdetect.opcode import read_corpus_csv
    from wsdetect.srcmodel import CnnConfig, train_cnn

    vocab = _load_vocab(args.language, args.vocab)
    corpus = read_corpus_csv(args.corpus, len(vocab))
    if not corpus.vectors:
        print("error: empty corpus", file=err)
        return EXIT_ERROR
    config = CnnConfig.for_language(
        args.language, len(vocab), len(corpus.vectors[0]), seed=args.seed,
        **_given(args, "epochs", "batch_size"))
    model, history = train_cnn(corpus.vectors, corpus.labels, config,
                               language=args.language, vocab=vocab)
    return _save_fit(model, history, args, out, epochs=len(history))


def cmd_train_flow(args, out, err) -> int:
    from wsdetect.trafficmodel import TabularConfig, train_dnn

    cleaned_cells, dataset = _labelled_dataset(args.csv)
    config = TabularConfig(weighted=args.weighted, seed=args.seed,
                           **_given(args, "epochs", "batch_size"))
    model, history = train_dnn(dataset, config)
    return _save_fit(model, history, args, out, records=len(dataset),
                     cleaned_cells=cleaned_cells)


# --- prediction ---------------------------------------------------------

# `predict src` reads and vectorizes at most this many files, then
# classifies their vectors in one CNN forward
SRC_BATCH_FILES = 64


def cmd_predict_src(args, out, err) -> int:
    from wsdetect.files import read_each
    from wsdetect.opcode import OciVector, OpcodeParseError
    from wsdetect.rulelang import CompiledRuleSet
    from wsdetect.srcmodel import (
        OpcodeCnn,
        check_model_pairing,
        cnn_verdicts,
        rules_or_vector,
    )
    from wsdetect.tensornet import load_model

    model = load_model(args.model, expect=OpcodeCnn)
    language = args.language or model.language
    vocab = _load_vocab(language, args.vocab)
    check_model_pairing(model, language, vocab)  # one error, before any file
    # built once: the matcher would rebuild its key tables for every file
    rules = CompiledRuleSet(_load_ruleset(args.rules)) if args.rules else None
    max_length = model.config.max_length
    detections = failed = 0
    for start in range(0, len(args.files), SRC_BATCH_FILES):
        batch = args.files[start:start + SRC_BATCH_FILES]
        # each file's rule verdict, vector or error message; its bytes are
        # not kept
        results = []
        for _, result in read_each(batch):
            if isinstance(result, bytes):
                try:
                    result = rules_or_vector(rules, result, language, vocab,
                                             max_length)
                except OpcodeParseError as exc:
                    # the message, not the exception: its traceback would
                    # hold this frame, and all it references, until a GC pass
                    result = str(exc)
            results.append(result)
        vectors = [result for result in results if isinstance(result, OciVector)]
        verdicts = iter(cnn_verdicts(model, vectors))
        lines, failures = [], []
        for path, result in zip(batch, results):
            if isinstance(result, str):
                failures.append((path, result))
                continue
            verdict = next(verdicts) if isinstance(result, OciVector) else result
            detections += verdict.label == "Webshell"
            lines.append(json.dumps({
                "path": path, "label": verdict.label, "source": verdict.source,
                "p_webshell": round(verdict.p_webshell, 6),
                "rules": list(verdict.matched_rules)}))
        if lines:
            print("\n".join(lines), file=out)
        _print_failures(failures, err, as_json=True)
        failed += len(failures)
    return _exit_code(detections, failed)


def cmd_predict_flow(args, out, err) -> int:
    from wsdetect.flowmeter import read_csv
    from wsdetect.tensornet import load_model
    from wsdetect.trafficmodel import TabularDataset, TabularDnn, dnn_predict

    model = load_model(args.model, expect=TabularDnn)
    table, _ = read_csv(args.csv)
    dataset = TabularDataset(table.categoricals, table.continuous,
                             [0] * len(table.flow_id))
    probs, classes = dnn_predict(model, dataset)
    detections = 0
    for flow_id, cls, p in zip(table.flow_id, classes, probs):
        label = "Webshell" if cls == 1 else "Benign"
        detections += cls == 1
        print(json.dumps({
            "flow_id": flow_id, "label": label,
            "p_webshell": round(float(p[1]), 6)}), file=out)
    return EXIT_DETECTED if detections else EXIT_OK


# --- flows ---------------------------------------------------------------

def cmd_flows_extract(args, out, err) -> int:
    from wsdetect.flowmeter import (
        assemble_flows,
        feature_table,
        read_pcap,
        write_csv,
        write_jsonl,
    )

    capture = read_pcap(args.pcap)
    flows = assemble_flows(capture.packets,
                           flow_timeout_us=args.flow_timeout * 1_000_000)
    table = feature_table(flows)
    write = write_jsonl if args.out.endswith(".jsonl") else write_csv
    write(table, args.out)
    _emit({"packets": len(capture.packets), "skipped": capture.skipped,
           "fragments": capture.fragments, "flows": len(flows),
           "out": args.out}, args, out)
    return EXIT_OK


# --- eval ------------------------------------------------------------------

def cmd_eval_metrics(args, out, err) -> int:
    from wsdetect.evalkit import ConfusionMatrix, metrics

    cm = ConfusionMatrix(tp=args.tp, fp=args.fp, fn=args.fn, tn=args.tn)
    report = metrics(cm)
    _emit(report.as_dict(digits=2), args, out)
    return EXIT_OK


def cmd_eval_kfold(args, out, err) -> int:
    from wsdetect.trafficmodel import TabularConfig, kfold_cv

    _, dataset = _labelled_dataset(args.csv)
    config = TabularConfig(weighted=args.weighted, seed=args.seed)
    report = kfold_cv(dataset, args.k, config, seed=args.seed)
    if args.json:
        print(json.dumps({"folds": [f.as_dict() for f in report.folds],
                          "averages": {k: round(v, 4) for k, v in
                                       report.averages.items()}}), file=out)
    else:
        for fold in report.folds:
            print(fold.as_dict(), file=out)
        print({"averages": {k: round(v, 2) for k, v in report.averages.items()}},
              file=out)
    return EXIT_OK


# --- tune --------------------------------------------------------------------

def cmd_tune_grid(args, out, err) -> int:
    from wsdetect.evalkit import SearchSpace, grid_search
    from wsdetect.trafficmodel import TabularConfig, kfold_cv

    spec = json.loads(Path(args.space).read_text(encoding="utf-8"))
    space = SearchSpace.from_dict(spec)
    _, dataset = _labelled_dataset(args.csv)

    def eval_point(point: dict) -> float:
        overrides = dict(point)
        if "hidden" in overrides:
            overrides["hidden"] = tuple(overrides["hidden"])
        if "batch_size" in overrides:
            overrides["batch_size"] = int(overrides["batch_size"])
        if "epochs" in overrides:
            overrides["epochs"] = int(overrides["epochs"])
        config = TabularConfig(weighted=args.weighted, seed=args.seed, **overrides)
        report = kfold_cv(dataset, args.k, config, seed=args.seed)
        return report.averages["accuracy"]

    result = grid_search(space, eval_point)
    payload = {
        "best": result.best, "best_score": round(result.best_score, 4),
        "leaderboard": [{"point": p, "score": round(s, 4)}
                        for p, s in result.leaderboard],
        "failures": [{"point": p, "error": e} for p, e in result.failures],
    }
    print(json.dumps(payload) if args.json else json.dumps(payload, indent=2),
          file=out)
    return EXIT_OK


# --- dataset ------------------------------------------------------------------

def cmd_dataset_dedup(args, out, err) -> int:
    from wsdetect.evalkit import dedup
    from wsdetect.files import walk

    report = dedup(walk(args.root))
    _print_failures(report.unreadable, err)
    if args.manifest:
        import csv as _csv

        with open(args.manifest, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["path", "status", "duplicate_of", "hash"])
            for kept in report.kept:
                writer.writerow([kept, "kept", "", report.digests[kept]])
            for dup, kept_as in report.removed:
                writer.writerow([dup, "duplicate", kept_as, report.digests[dup]])
    _emit({"kept": len(report.kept), "removed": len(report.removed),
           "unreadable": len(report.unreadable)}, args, out)
    return _exit_code(False, report.unreadable)


def cmd_dataset_split(args, out, err) -> int:
    import csv as _csv

    from wsdetect.evalkit import DatasetItem, dedup, split_dataset
    from wsdetect.files import walk

    root = Path(args.root)
    paths = walk(root)
    # every file is read, and hashed, before the manifest is opened
    report = dedup(paths)
    _print_failures(report.unreadable, err)
    items = [DatasetItem(key=str(path), source=path.relative_to(root).parts[0]
                         if path.parent != root else "")
             for path in paths if str(path) in report.digests]
    train, test = split_dataset(items, ratio=args.ratio, seed=args.seed,
                                by_source=args.by_source)
    with open(args.manifest, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["path", "source", "split", "hash"])
        for split_name, part in (("train", train), ("test", test)):
            for item in part:
                writer.writerow([item.key, item.source, split_name,
                                 report.digests[item.key]])
    _emit({"train": len(train), "test": len(test), "manifest": args.manifest},
          args, out)
    return _exit_code(False, report.unreadable)


def cmd_dataset_clean(args, out, err) -> int:
    from wsdetect.rulelang import match_files

    matched, failures = match_files(_load_ruleset(args.rules), args.files)
    confirmed = [path for path, names in matched if names]
    for path in confirmed:
        print(json.dumps({"path": path, "status": "confirmed"}), file=out)
    for path, names in matched:
        if not names:
            print(json.dumps({"path": path, "status": "needs_review"}), file=out)
    _print_failures(failures, err, as_json=True)
    return _exit_code(confirmed, failures)


# --- inspect -------------------------------------------------------------------

def cmd_inspect_once(args, out, err) -> int:
    import time as _time

    from wsdetect.inspector import SourceTable, inspect_pcap, load_config, write_rules
    from wsdetect.inspector.daemon import load_predictor
    from wsdetect.inspector.pipeline import emit_eve

    # without a rules directory from a flag or the config, generated
    # rules go to stdout: the daemon's default directory is never written
    config = load_config(args.config, {"model_path": args.model,
                                       "rules_dir": args.rules_dir,
                                       "eve_path": args.eve,
                                       "mode": args.mode},
                         defaults={"rules_dir": ""})
    model = load_predictor(config.model_path)
    started = _time.perf_counter()
    table = SourceTable.load(config.rules_dir, config.sid_start,
                             config.blacklist_ttl_s)
    result = inspect_pcap(args.pcap, model, config, table=table)
    elapsed_ms = (_time.perf_counter() - started) * 1000.0
    # the rule file before the EVE file, as the daemon writes them: a
    # failed rule write appends no alert, so a retry appends none twice
    if result.rules and config.rules_dir:
        write_rules(result.rules, config.rules_dir, table)
    if config.eve_path:
        emit_eve(result.alerts, config.eve_path)
    else:
        for alert in result.alerts:
            print(json.dumps(alert.to_eve()), file=out)
    if result.rules and not config.rules_dir:
        for rule in result.rules:
            print(rule.render(), file=out)
    _emit(result.stats(elapsed_ms), args, err)
    return EXIT_DETECTED if result.webshell else EXIT_OK


def cmd_inspect_serve(args, out, err) -> int:
    from wsdetect.inspector import load_config, serve

    config = load_config(args.config, {"model_path": args.model,
                                       "socket_path": args.socket,
                                       "rules_dir": args.rules_dir,
                                       "eve_path": args.eve})
    try:
        serve(config)
    except KeyboardInterrupt:
        pass
    return EXIT_OK


# --- parser wiring ---------------------------------------------------------

def _rules_commands(command) -> None:
    p = command("check", "parse/validate rule files", cmd_rules_check)
    p.add_argument("files", nargs="+")
    p = command("scan", "scan a directory tree", cmd_rules_scan, report=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--ext", action="append", default=None,
                   help="only scan these extensions (repeatable)")


def _oci_commands(command) -> None:
    from wsdetect.opcode import LANGUAGES

    p = command("extract", "vectorize disassembly files", cmd_oci_extract)
    p.add_argument("--language", choices=LANGUAGES, required=True)
    p.add_argument("--vocab", default=None, help="vocabulary file (default: built-in)")
    p.add_argument("--max-length", type=_positive_int, default=2000)
    p.add_argument("--label", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", required=True)
    p.add_argument("files", nargs="+")


def _train_commands(command) -> None:
    from wsdetect.opcode import LANGUAGES

    p = command("src", "opcode CNN from a corpus CSV", cmd_train_src,
                report=True, seeded=True)
    p.add_argument("--corpus", required=True, help="output of `oci extract`")
    p.add_argument("--language", choices=LANGUAGES, required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--out", required=True)
    p = command("flow", "traffic DNN from a feature CSV", cmd_train_flow,
                report=True, seeded=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--weighted", action="store_true",
                   help="class-weighted loss for imbalanced data")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--out", required=True)


def _predict_commands(command) -> None:
    from wsdetect.opcode import LANGUAGES

    p = command("src", "hybrid/CNN verdicts for files", cmd_predict_src)
    p.add_argument("--model", required=True)
    p.add_argument("--rules", default=None,
                   help="rule file/dir for the hybrid short-circuit")
    p.add_argument("--language", choices=LANGUAGES, default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("files", nargs="+")
    p = command("flow", "verdicts for a feature CSV", cmd_predict_flow)
    p.add_argument("--model", required=True)
    p.add_argument("--csv", required=True)


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _flows_commands(command) -> None:
    p = command("extract", "pcap -> feature CSV (JSON lines for .jsonl)",
                cmd_flows_extract, report=True)
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--flow-timeout", type=_positive_int, default=120,
                   help="flow idle timeout, seconds")


def _eval_commands(command) -> None:
    p = command("metrics", "panel from a confusion matrix", cmd_eval_metrics,
                report=True)
    p.add_argument("--tp", type=int, required=True)
    p.add_argument("--fp", type=int, required=True)
    p.add_argument("--fn", type=int, required=True)
    p.add_argument("--tn", type=int, required=True)
    p = command("kfold", "k-fold CV of the traffic DNN", cmd_eval_kfold,
                report=True, seeded=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--weighted", action="store_true")


def _tune_commands(command) -> None:
    p = command("grid", "grid search over a space file", cmd_tune_grid,
                report=True, seeded=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--space", required=True,
                   help='JSON like {"learning_rate": {"range": [0.001, 0.1], '
                        '"steps": 3}, "batch_size": {"choice": [32, 64]}}')
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--weighted", action="store_true")


def _dataset_commands(command) -> None:
    p = command("dedup", "drop byte-identical files", cmd_dataset_dedup,
                report=True)
    p.add_argument("--root", required=True)
    p.add_argument("--manifest", default=None, help="write a CSV manifest")
    p = command("split", "train/test split manifest", cmd_dataset_split,
                report=True, seeded=True)
    p.add_argument("--root", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--by-source", action="store_true",
                   help="assign whole first-level directories to one side")
    p.add_argument("--manifest", required=True)
    p = command("clean", "triage candidates against rules", cmd_dataset_clean)
    p.add_argument("--rules", required=True)
    p.add_argument("files", nargs="+")


def _inspect_commands(command) -> None:
    p = command("once", "inspect one pcap file", cmd_inspect_once, report=True)
    p.add_argument("--pcap", required=True)
    p.add_argument("--model", required=True,
                   help="WSNET1 checkpoint, or stub / stub:benign")
    p.add_argument("--rules-dir", default=None)
    p.add_argument("--eve", default=None, help="append alerts to this EVE file")
    p.add_argument("--mode", choices=("ips", "ids"), default=None)
    p = command("serve", "run the socket daemon", cmd_inspect_serve)
    p.add_argument("--model", default=None)
    p.add_argument("--socket", default=None)
    p.add_argument("--rules-dir", default=None)
    p.add_argument("--eve", default=None)


def _command(commands, name, help, func, report=False, seeded=False):
    """A subcommand of a group's `commands` running `func`. Only a command
    that prints a report takes --json, and only one with a seeded path
    takes --seed."""
    p = commands.add_parser(name, help=help)
    p.set_defaults(func=func)
    if report:
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
    if seeded:
        p.add_argument("--seed", type=int, default=0)
    return p


# Each command group: its help line and the function adding its commands.
GROUPS = {
    "rules": ("signature rule operations", _rules_commands),
    "oci": ("opcode vectorization", _oci_commands),
    "train": ("train a detector", _train_commands),
    "predict": ("classify with a trained model", _predict_commands),
    "flows": ("flow feature extraction", _flows_commands),
    "eval": ("metrics and cross-validation", _eval_commands),
    "tune": ("hyperparameter search", _tune_commands),
    "dataset": ("corpus hygiene", _dataset_commands),
    "inspect": ("traffic inspection", _inspect_commands),
}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The whole `wsdetect` parser, or with `group`, a name in GROUPS, a
    parser that builds that group's commands only. It parses a command
    line starting with the group name as the whole parser does, with the
    same help, usage errors and exit codes: the root usage line still
    names every group."""
    if group is not None and group not in GROUPS:
        raise ValueError(f"no command group {group!r}")
    parser = argparse.ArgumentParser(
        prog="wsdetect",
        description="Hybrid webshell detection: signature rules + opcode CNN "
                    "for source files, flow features + DNN for traffic.")
    parser.add_argument("--config", default=None, help="JSON config file")
    # a metavar would also rename the group in the "arguments are
    # required" error, which only the whole parser can raise
    names = {} if group is None else {"metavar": "{" + ",".join(GROUPS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **names)

    for name, (help, add_commands) in GROUPS.items():
        if group in (None, name):
            commands = sub.add_parser(name, help=help).add_subparsers(
                dest="subcommand", required=True)
            add_commands(functools.partial(_command, commands))
    return parser


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv and dispatch. Returns the process exit code.

    A command line that starts with a group name, with no -h/--help
    among its first two words, is parsed by that group's parser alone
    (`build_parser(group)`), which prints what the whole parser would;
    any other command line (a leading --config, --help or an unknown
    word) builds the whole parser. Nothing is kept across calls."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    lazy = bool(argv) and argv[0] in GROUPS and not {"-h", "--help"} & set(argv[:2])
    parser = build_parser(argv[0] if lazy else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out, err)
    except BrokenPipeError:
        return EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
