"""A seeded sweep of backend faults through the CLI: compress, score and ablate at 1 to 3 workers, in each scope.

Each run goes to the test stub with a fault plan (``http_stub.FaultPlan``):
marker tokens in some instances' thinking draw permanent faults, and a share
of requests draw transient ones. Or it goes to a backend in process that
answers one item short in any call holding a marker. Every run must end;
exactly the marked instances fail, each logged with the message it gets when
compressed alone; every other line equals the toy backend's; the exit code is
3 when a transient fault outlasts the retries, else 1 or 0; and no lane
thread or connection is left. A second property runs the same CLI on the
toy backend without faults: every line it writes equals its instance
compressed alone, whatever the lanes' rolling admission put beside it.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import json
import logging
import random
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cts.cli  # noqa: E402
from cts.backends import HttpBackend, HttpBackendConfig, ToyBackend  # noqa: E402
from cts.dataset import CotInstance, compressed_to_dict  # noqa: E402
from cts.errors import CtsError  # noqa: E402
from cts.runner import LOOKAHEAD_PER_WORKER  # noqa: E402
from cts.selector import SelectionConfig, compress_instance  # noqa: E402

from conftest import random_spec, write_jsonl_file, write_spec_file  # noqa: E402
from http_stub import MARKERS, CountingStub, FaultPlan, ShortAnswers  # noqa: E402

GROUP = 2  # SCORE_GROUP for the sweep, so that a small corpus is many groups
RETRIES = 2
SPEC = random_spec([*"ABC :", *MARKERS], random.Random(0))
SCOPES = {
    "global": ["--scope", "global"],
    "per-segment": ["--scope", "per-segment", "--segment-budget", "4", "--boundary-slack", "0"],
    "original-prefix": ["--scope", "per-segment", "--segment-budget", "4", "--boundary-slack", "0",
                        "--iterative-original-prefix"],
}
# the markers a marked instance may hold: those that strike each endpoint, or any
MARKER_SETS = {endpoint: sorted(m for m, (where, _) in MARKERS.items() if where == endpoint)
               for endpoint in ("/tokenize", "/logprobs")}
MARKER_SETS["any"] = sorted(MARKERS)


def corpus(rng: random.Random, groups: int, marked_share: float, markers: list[str]) -> tuple[list[dict], set]:
    """``groups`` x GROUP short instances; a ``marked_share`` of them hold one of ``markers``."""
    records, marked = [], set()
    for i in range(groups * GROUP):
        thinking = "".join(rng.choice("ABC ") for _ in range(rng.randint(4, 16)))
        if rng.random() < marked_share:
            at = rng.randint(0, len(thinking))
            thinking = thinking[:at] + rng.choice(markers) + thinking[at:]
            marked.add(f"inst-{i}")
        records.append({"id": f"inst-{i}", "problem": "", "thinking": thinking, "answer": rng.choice("ABC")})
    return records, marked


def argv(command: str, corpus_path: str, out: Path, scope: str, workers: int, backend: str) -> list[str]:
    ratio = [] if command == "score" else ["--ratio", "0.7"]
    return [command, "--input", corpus_path, "--output", str(out), *ratio, "--backend", backend,
            "--condition-template", "{answer}:", *SCOPES[scope], "--workers", str(workers)]


def jobs(command: str, scope: str) -> list[tuple[str, SelectionConfig]]:
    """The (name, config) of each job the command runs, as the CLI logs and configures them."""
    def config(conditional: bool) -> SelectionConfig:
        return SelectionConfig(alpha=1.0 if command == "score" else 0.7, conditional=conditional,
                               condition_template="{answer}:", segment_budget=4, boundary_slack=0,
                               selection_scope="global" if scope == "global" else "per_segment",
                               iterative_original_prefix=scope == "original-prefix")
    if command == "ablate":
        return [(f"ablate {mode.name}", config(mode.conditional)) for mode in cts.cli.ABLATION_MODES]
    return [(command, config(True))]


def output_lines(out: Path, command: str) -> list[bytes]:
    """The lines written, each ablation mode's file in turn; None when nothing was written."""
    paths = [out / f"{mode.name}.jsonl" for mode in cts.cli.ABLATION_MODES] if command == "ablate" else [out]
    if not all(path.exists() for path in paths):
        assert not any(path.exists() for path in paths)
        return None
    return [line for path in paths for line in path.read_bytes().splitlines(keepends=True)]


def instance_id(line: bytes) -> str:
    row = json.loads(line)
    return row["instance_id"] if "instance_id" in row else row["id"]


class Failures(logging.Handler):
    """Keeps the message of each record that logs a failed instance."""

    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        if " failed: " in record.getMessage():
            self.messages.append(record.getMessage())


# as many examples as the loaded profile asks for: 100 under hypothesis's default profile, 500 under
# the "fault-sweep" profile of conftest.py
@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["compress", "score", "ablate"]),
    scope=st.sampled_from(sorted(SCOPES)),
    workers=st.sampled_from([2, 3, 1]),
    over_http=st.sampled_from([True, False]),
    seed=st.integers(0, 2**16),
    transient=st.sampled_from([0.1, 0.3, 0.0]),
    marked_share=st.sampled_from([0.2, 1.0, 0.0]),
    markers=st.sampled_from(["any", "/tokenize", "/logprobs"]),
)
def test_faults_fail_exactly_the_marked_instances(command, scope, workers, over_http, seed, transient,
                                                  marked_share, markers):
    rng = random.Random(seed)
    # more groups than map_ordered's window of LOOKAHEAD_PER_WORKER x workers
    records, marked = corpus(rng, LOOKAHEAD_PER_WORKER * workers + rng.randint(1, 3), marked_share,
                             MARKER_SETS[markers])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path = write_jsonl_file(records, tmp / "corpus.jsonl")
        toy = f"toy:{write_spec_file(SPEC, tmp / 'spec.json')}"
        assert cts.cli.main(argv(command, corpus_path, tmp / "toy", scope, 1, toy)) == 0
        expected = [line for line in output_lines(tmp / "toy", command) if instance_id(line) not in marked]

        with CountingStub(ToyBackend(SPEC)) as server:
            server.state.faults = FaultPlan(seed, transient if over_http else 0.0)

            def backend(descriptor):  # the backoff clock does not wait
                if not over_http:
                    return ShortAnswers(SPEC)
                config = HttpBackendConfig(base_url=server.url, max_retries=RETRIES, timeout=5.0)
                return HttpBackend(config, sleep=lambda seconds: None)

            codes, failures = [], Failures()
            out = tmp / "out"
            logger = logging.getLogger("cts")
            logger.addHandler(failures)
            try:
                with mock.patch.multiple(cts.cli, SCORE_GROUP=GROUP, GROUP_CHARS=0, build_backend=backend):
                    run = threading.Thread(target=lambda: codes.append(
                        cts.cli.main(argv(command, corpus_path, out, scope, workers, "sweep"))), daemon=True)
                    run.start()
                    run.join(timeout=60)
            finally:
                logger.removeHandler(failures)
            assert not run.is_alive(), "the run did not end"
            assert not [t.name for t in threading.enumerate() if t.name.startswith("cts-lane-")]

            # a transient fault outlasted the retries of some request iff its last reply was one
            gave_up = any(server.state.last_transient.values())
            assert codes == [3 if gave_up else 1 if marked else 0]
            written = output_lines(out, command)
            if gave_up:
                assert written is None
            else:
                assert written == expected
                # each marked instance fails as it does alone, with the permanent faults only
                server.state.faults = FaultPlan(seed)
                alone = backend(None)
                logged = []
                for record in records:
                    if record["id"] not in marked:
                        continue
                    instance = CotInstance(record["id"], "", record["thinking"], record["answer"])
                    for name, config in jobs(command, scope):
                        with pytest.raises(CtsError) as exc:
                            compress_instance(instance, config, alone)
                        logged.append(f"{name}: instance {record['id']} failed: {exc.value}")
                alone.close()
                assert failures.messages == logged
            assert server.wait_until_all_closed()


@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["compress", "ablate"]),
    scope=st.sampled_from(sorted(SCOPES)),
    workers=st.sampled_from([2, 3, 1]),
    seed=st.integers(0, 2**16),
)
def test_every_line_equals_its_instance_compressed_alone(command, scope, workers, seed):
    rng = random.Random(seed)
    # more groups than map_ordered's window of LOOKAHEAD_PER_WORKER x workers, of 1 to 4 segments each
    records, _ = corpus(rng, LOOKAHEAD_PER_WORKER * workers + rng.randint(1, 3), 0.0, [])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path = write_jsonl_file(records, tmp / "corpus.jsonl")
        toy = f"toy:{write_spec_file(SPEC, tmp / 'spec.json')}"
        with mock.patch.multiple(cts.cli, SCORE_GROUP=GROUP, GROUP_CHARS=0):
            assert cts.cli.main(argv(command, corpus_path, tmp / "out", scope, workers, toy)) == 0
        written = output_lines(tmp / "out", command)
    backend = ToyBackend(SPEC)
    instances = [CotInstance(r["id"], r["problem"], r["thinking"], r["answer"]) for r in records]
    alone = [compressed_to_dict(compress_instance(instance, config, backend)[0])
             for _, config in jobs(command, scope) for instance in instances]
    assert written == [json.dumps(record, ensure_ascii=False).encode() + b"\n" for record in alone]
