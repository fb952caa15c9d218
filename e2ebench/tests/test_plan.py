"""The serve workload's inputs are a pure function of the seed."""

from loadgen import (
    DUPLICATE_EVERY,
    READ_DAEMONS,
    SEEDS_PER_EXPERIMENT,
    SERVE_EXPERIMENTS,
    ServePlan,
)


def test_same_seed_same_schedule_and_key_space():
    a, b = ServePlan.from_seed(7, 10), ServePlan.from_seed(7, 10)
    assert a == b
    ra, rb = a.read_segments(10), b.read_segments(10)
    assert [[(r.target, r.due) for r in seg] for seg in ra] == [
        [(r.target, r.due) for r in seg] for seg in rb
    ]
    assert [r.target for r in a.fill_requests()] == [r.target for r in b.fill_requests()]


def test_other_seed_other_inputs():
    a, b = ServePlan.from_seed(7, 10), ServePlan.from_seed(8, 10)
    assert a.timed_keys != b.timed_keys
    assert a.read_schedule != b.read_schedule


def test_key_space_shape():
    plan = ServePlan.from_seed(3, 10)
    assert len(set(plan.timed_keys)) == len(SERVE_EXPERIMENTS) * SEEDS_PER_EXPERIMENT
    assert {e for e, _ in plan.timed_keys} == set(SERVE_EXPERIMENTS)
    # warm-up keys are filled but never timed
    assert not set(plan.warmup_keys) & set(plan.timed_keys)
    assert set(plan.fill_order) == set(plan.timed_keys) | set(plan.warmup_keys)


def test_fill_sends_duplicates_in_pairs():
    requests = ServePlan.from_seed(3, 10).fill_requests()
    by_group: dict[int, list] = {}
    for request in requests:
        by_group.setdefault(request.group, []).append(request)
    pairs = [g for g in by_group.values() if len(g) == 2]
    assert len(pairs) == -(-len(by_group) // DUPLICATE_EVERY)
    assert all(a.key == b.key for a, b in pairs)


def test_read_schedule_is_open_loop_and_few_first_touches():
    plan = ServePlan.from_seed(11, 10)
    segments = plan.read_segments(10)
    assert len(segments) == READ_DAEMONS
    for segment in segments:
        dues = [r.due for r in segment]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 10 / READ_DAEMONS
    requests = [r for segment in segments for r in segment]
    assert len(requests) == len(plan.read_schedule)
    runs = [r for r in requests if r.key is not None]
    scrapes = [r for r in requests if r.key is None]
    assert [r.target for r in scrapes] == ["/v1/metrics"] * 9
    assert set(r.key for r in runs) <= set(plan.timed_keys)
    assert 3000 < len(runs) < 5000  # ~400 per second
    # each segment's daemon starts cold, so each touches its keys once:
    # a few percent of the requests
    touches = sum(len({r.key for r in seg if r.key}) for seg in segments)
    assert 0.02 < touches / len(runs) < 0.08
