"""Synthetic mixtures and check-in ingestion."""

import gzip
import math
from datetime import date

import numpy as np
import pytest

from emdheat.datagen import (
    US_BBOX,
    BBox,
    Checkins,
    MixtureSpec,
    build_cells,
    filter_date_range,
    in_bbox,
    open_maybe_gzip,
    parse_checkins,
    random_mixture_spec,
    read_dataset,
    synth_users,
    write_dataset,
)
from emdheat.grid import SparseDist

from helpers import (
    assert_same_cells,
    dense_count_synth,
    gp,
    loop_build_cells,
    loop_write_csv,
    rand_sparse,
    support,
)


def test_parse_single_line():
    checkins, skipped = parse_checkins(["u1\t2010-01-15T08:00:00Z\t30.24\t-97.79\tL1"])
    assert skipped == 0
    assert type(checkins) is Checkins and len(checkins) == 1
    assert checkins.user_ids.dtype == object and checkins.user_ids.tolist() == ["u1"]
    assert checkins.day.dtype == np.int64
    assert checkins.day.tolist() == [date(2010, 1, 15).toordinal()]
    assert checkins.lat.dtype == checkins.lon.dtype == np.float64
    assert checkins.lat.tolist() == [30.24]
    assert checkins.lon.tolist() == [-97.79]


def test_parse_optional_location_and_blank_lines():
    checkins, skipped = parse_checkins(
        ["u2\t2011-02-03T10:00:00\t40.0\t-74.0", "", "\n"]
    )
    assert skipped == 0
    assert checkins.user_ids.tolist() == ["u2"]


def test_parse_skips_malformed_lines():
    lines = [
        "u1\t2010-01-15T08:00:00Z\t95.0\t-97.79\tL1",  # latitude out of range
        "u1\t2010-01-15T08:00:00Z\t30.24\t-200.0\tL1",  # longitude out of range
        "u1\tnot-a-time\t30.24\t-97.79\tL1",
        "u1\t2010-01-15T08:00:00Z\tthirty\t-97.79\tL1",
        "u1\t2010-01-15T08:00:00Z\t30.24",  # too few fields
        "a\tb\tc\td\te\tf",  # too many fields
        "u9\t2010-01-15T08:00:00Z\t30.24\t-97.79",
    ]
    checkins, skipped = parse_checkins(lines)
    assert skipped == 6
    assert checkins.user_ids.tolist() == ["u9"]


def test_parse_line_endings():
    lines = [
        "u1\t2010-01-15T08:00:00Z\t30.24\t-97.79\tL1\r\n",
        "u2\t2010-01-15T08:00:00Z\t30.24\t-97.79\n",
        "\r\n",
        "\n\r",  # not a blank line once its line feeds are stripped
    ]
    checkins, skipped = parse_checkins(lines)
    assert skipped == 1
    assert checkins.user_ids.tolist() == ["u1", "u2"]


def test_filter_date_range_inclusive():
    checkins, _ = parse_checkins(
        [
            "u1\t2010-01-15T08:00:00Z\t30.0\t-97.0",
            "u2\t2010-01-16T23:59:00Z\t30.0\t-97.0",
            "u3\t2010-01-17T00:00:00Z\t30.0\t-97.0",
        ]
    )
    kept = filter_date_range(checkins, start=date(2010, 1, 16), end=date(2010, 1, 16))
    assert kept.user_ids.tolist() == ["u2"]
    assert len(filter_date_range(checkins, start=date(2010, 1, 15))) == 3
    assert len(filter_date_range(checkins, end=date(2010, 1, 15))) == 1


def test_filter_date_range_uses_each_timestamps_own_date():
    # 04:30 UTC on Jan 16, but Jan 15 in the timestamp's own offset
    checkins, skipped = parse_checkins(
        [
            "west\t2010-01-15T23:30:00-05:00\t30.0\t-97.0",
            "east\t2010-01-16T00:30:00+09:00\t30.0\t-97.0",
        ]
    )
    assert skipped == 0
    jan15, jan16 = date(2010, 1, 15), date(2010, 1, 16)
    assert filter_date_range(checkins, jan15, jan15).user_ids.tolist() == ["west"]
    assert filter_date_range(checkins, jan16, jan16).user_ids.tolist() == ["east"]
    # the columns keep their alignment through the mask
    kept = filter_date_range(checkins, start=jan16)
    assert (kept.day.tolist(), kept.lat.tolist(), kept.lon.tolist()) == (
        [jan16.toordinal()], [30.0], [-97.0]
    )


def test_us_bbox_bounds():
    assert US_BBOX == BBox(-135.0, -60.0, 0.0, 50.0)


def city_lines():
    lines = []
    # three clusters, sizes 50 > 30 > 20, each inside one coarse cell
    cities = [(-97.70, 30.25, 50), (-122.40, 37.75, 30), (-74.10, 40.70, 20)]
    rng = np.random.default_rng(90)
    uid = 0
    for lon, lat, count in cities:
        for _ in range(count):
            jlon = lon + rng.uniform(-0.01, 0.01)
            jlat = lat + rng.uniform(-0.01, 0.01)
            lines.append(f"u{uid}\t2010-05-01T12:00:00Z\t{jlat:.6f}\t{jlon:.6f}")
            uid += 1
    # background singletons scattered over other cells
    for k in range(5):
        lines.append(f"bg{k}\t2010-05-01T12:00:00Z\t{10.0 + k}\t{-110.0 + k}")
    return lines


def test_build_cells_ranks_cities_by_activity():
    checkins, skipped = parse_checkins(city_lines())
    assert skipped == 0
    cells = build_cells(checkins, resolution=16, top_cells=3, min_users=25)
    assert [c.rank for c in cells] == [0, 1, 2]
    assert [c.checkin_count for c in cells] == [50, 30, 20]
    assert [c.meets_min_users for c in cells] == [True, True, False]
    top = cells[0]
    assert top.bounds.lon_min <= -97.70 <= top.bounds.lon_max
    assert top.bounds.lat_min <= 30.25 <= top.bounds.lat_max
    for cell in cells:
        assert cell.n_users == cell.checkin_count  # one check-in per user here
        for dist in cell.users.values():
            assert dist.total_mass == pytest.approx(1.0)
            assert dist.resolution == 16


def test_build_cells_excludes_bbox_boundary():
    lines = [
        "e1\t2010-05-01T12:00:00Z\t25.0\t-135.0",  # on the western edge
        "e2\t2010-05-01T12:00:00Z\t0.0\t-100.0",  # on the southern edge
        "ok\t2010-05-01T12:00:00Z\t25.0\t-100.0",
    ]
    checkins, _ = parse_checkins(lines)
    cells = build_cells(checkins, resolution=8, top_cells=5, min_users=1)
    assert sum(c.checkin_count for c in cells) == 1


def test_build_cells_repeat_user_aggregates():
    lines = [
        "u1\t2010-05-01T12:00:00Z\t30.250\t-97.700",
        "u1\t2010-05-01T13:00:00Z\t30.250\t-97.700",
        "u1\t2010-05-01T14:00:00Z\t30.300\t-97.600",
    ]
    checkins, _ = parse_checkins(lines)
    cells = build_cells(checkins, resolution=4, top_cells=1, min_users=1)
    dist = cells[0].users["u1"]
    assert dist.total_mass == pytest.approx(1.0)
    assert max(dist.entries.values()) == pytest.approx(2 / 3)


def venue_log(seed: int, n_users: int, bbox: BBox) -> list[str]:
    """A city log: users check in at shared venues, a few trips out of town."""
    rng = np.random.default_rng(seed)
    venues = rng.uniform(0.02, 0.98, size=(200, 2))
    lons = bbox.lon_min + venues[:, 0] * (bbox.lon_max - bbox.lon_min)
    lats = bbox.lat_min + venues[:, 1] * (bbox.lat_max - bbox.lat_min)
    lines = []
    for u in range(n_users):
        favourites = rng.choice(len(venues), size=6, replace=False)
        for v in rng.choice(favourites, size=int(rng.integers(5, 25))):
            lines.append(f"user{u}\t2011-03-05T14:00:00Z\t{lats[v]:.6f}\t{lons[v]:.6f}\tvenue{v}")
        if rng.random() < 0.1:
            lines.append(f"user{u}\t2011-03-05T14:00:00Z\t{bbox.lat_max + 1.0:.6f}\t{lons[0]:.6f}")
    # interleave users, as a real log orders check-ins by time
    order = rng.permutation(len(lines))
    return [lines[i] for i in order]


CITY = BBox(-97.9, -97.5, 30.1, 30.5)


@pytest.mark.parametrize(
    "resolution, coarse, top_cells, min_users",
    [(16, 300, 3, 25), (1024, 300, 30, 1), (8, 1000, 200, 1)],
)
def test_build_cells_matches_loop_on_city_lines(resolution, coarse, top_cells, min_users):
    checkins, _ = parse_checkins(city_lines())
    kwargs = dict(coarse=coarse, top_cells=top_cells, min_users=min_users)
    assert_same_cells(
        build_cells(checkins, resolution, **kwargs),
        loop_build_cells(checkins, resolution, **kwargs),
    )


@pytest.mark.parametrize(
    "resolution, coarse, top_cells",
    [(1024, 1, 1), (64, 4, 5), (32, 7, 100)],
)
def test_build_cells_matches_loop_on_generated_log(resolution, coarse, top_cells):
    checkins, skipped = parse_checkins(venue_log(7, 300, CITY))
    assert skipped == 0
    kwargs = dict(bbox=CITY, coarse=coarse, top_cells=top_cells, min_users=20)
    got = build_cells(checkins, resolution, **kwargs)
    assert_same_cells(got, loop_build_cells(checkins, resolution, **kwargs))
    assert len(got) == min(top_cells, coarse * coarse)
    in_city = int(in_bbox(checkins, CITY).sum())
    assert 0 < in_city < len(checkins)
    if coarse == 1:
        assert got[0].checkin_count == in_city
        assert got[0].n_users == 300


def test_build_cells_matches_loop_on_edge_points():
    west, east = US_BBOX.lon_min, US_BBOX.lon_max
    # x rounds to exactly 1.0 here: clipped into the last coarse cell
    top = math.nextafter(east, -math.inf)
    assert (top - west) / (east - west) == 1.0
    rows = [
        ("edge", 25.0, west),  # on the western edge: dropped
        ("top", 25.0, top),
        ("top", 25.0, top),
        ("mid", 25.0, -100.0),  # on a coarse-cell boundary
        ("mid", 25.0, -100.0 + 1e-9),
        ("mid", 26.0, -100.0),
        ("top", 49.99, top),
    ]
    uids, lats, lons = zip(*rows)
    checkins = Checkins(
        np.array(uids, dtype=object), np.zeros(len(rows), np.int64), np.array(lats), np.array(lons)
    )
    for coarse in (1, 3, 300):
        kwargs = dict(coarse=coarse, top_cells=10, min_users=1)
        got = build_cells(checkins, 1024, **kwargs)
        assert_same_cells(got, loop_build_cells(checkins, 1024, **kwargs))
        assert sum(c.checkin_count for c in got) == 6
    east_cell = build_cells(checkins, 1024, coarse=3, top_cells=10, min_users=1)[1]
    assert east_cell.cell_x == 2
    assert list(east_cell.users) == ["top"]
    assert east_cell.users["top"].entries == {gp(1023, 512, 1024): 1.0}


def test_build_cells_rejects_non_power_of_two_resolution():
    checkins, _ = parse_checkins(city_lines())
    for build in (build_cells, loop_build_cells):
        with pytest.raises(ValueError, match="power of two"):
            build(checkins, 12)
        # nothing in the box: no grid is built, so nothing to reject
        assert build(checkins, 12, bbox=BBox(0.0, 1.0, 0.0, 1.0)) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [({"coarse": 0}, "got 0 and 30"), ({"top_cells": -1}, "got 300 and -1")],
)
def test_build_cells_rejects_a_bad_partition(kwargs, message):
    checkins, _ = parse_checkins(city_lines())
    with pytest.raises(ValueError, match=message):
        build_cells(checkins, 16, **kwargs)


def test_in_bbox_is_strict():
    checkins, _ = parse_checkins(
        [
            "a\t2010-05-01T12:00:00Z\t25.0\t-135.0",
            "b\t2010-05-01T12:00:00Z\t25.0\t-134.9",
            "c\t2010-05-01T12:00:00Z\t50.0\t-100.0",
        ]
    )
    assert in_bbox(checkins).tolist() == [False, True, False]
    assert in_bbox(parse_checkins([])[0]).tolist() == []


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((0, 2)), np.zeros((0, 2, 2)), 1, 1, 8)
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((2, 2)), np.zeros((3, 2, 2)), 1, 1, 8)
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((1, 2)) + 0.5, np.eye(2)[None] * 1e-3, 0, 1, 8)
    bad_cov = MixtureSpec(
        np.zeros((1, 2)) + 0.5, -np.eye(2)[None], 1, 1, 8
    )
    with pytest.raises(ValueError):
        synth_users(bad_cov)


def test_synth_users_shapes_and_mass():
    spec = random_mixture_spec(5, 12, 40, 16, seed=1)
    users, sparsity = synth_users(spec)
    assert len(users) == 12
    assert 0.0 < sparsity <= 1.0
    for p in users:
        assert p.resolution == 16
        assert p.total_mass == pytest.approx(1.0)
        assert all(v > 0 for v in p.entries.values())


def test_synth_users_deterministic():
    spec = random_mixture_spec(5, 6, 30, 16, seed=2)
    u1, s1 = synth_users(spec)
    u2, s2 = synth_users(spec)
    assert s1 == s2
    assert all(a.entries == b.entries for a, b in zip(u1, u2))


def border_heavy_spec() -> MixtureSpec:
    """Means within 0.03 of the edges: 59% of samples are redrawn, 36% twice or more."""
    rng = np.random.default_rng(71)
    means = np.array([[0.01, 0.01], [0.99, 0.02], [0.02, 0.985], [0.975, 0.99], [0.01, 0.5]])
    covs = []
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=len(means)):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        covs.append(rot @ np.diag(rng.uniform(1e-3, 1e-2, size=2)) @ rot.T)
    return MixtureSpec(means, np.array(covs), samples_per_user=30, n_users=40, resolution=32, seed=9)


@pytest.mark.parametrize(
    "spec",
    [pytest.param(random_mixture_spec(*args[:4], seed=args[4]), id="-".join(map(str, args)))
     for args in [(5, 12, 40, 16, 1), (8, 100, 40, 64, 2), (3, 20, 50, 1024, 3)]]
    + [pytest.param(border_heavy_spec(), id="border-heavy"),
       pytest.param(random_mixture_spec(4, 1, 1, 8, seed=5), id="one-sample-one-user")],
)
def test_synth_users_matches_dense_counts(spec):
    users, sparsity = synth_users(spec)
    want, want_sparsity = dense_count_synth(spec)
    assert sparsity == want_sparsity
    assert len(users) == len(want)
    for p, q in zip(users, want):
        assert list(p.entries) == list(q.entries)
        assert np.array_equal(list(p.entries.values()), list(q.entries.values()))


def test_degenerate_blob_is_maximally_sparse():
    # one near-point component: all samples land in the cells touching it
    spec = MixtureSpec(
        np.array([[0.5, 0.5]]),
        np.eye(2)[None] * 1e-10,
        samples_per_user=50,
        n_users=20,
        resolution=16,
        seed=3,
    )
    _, sparsity = synth_users(spec)
    assert sparsity <= 4 / 16**2


def test_more_components_cover_more_cells():
    wins = 0
    for seed in range(10):
        _, few = synth_users(random_mixture_spec(20, 50, 50, 64, seed=seed))
        _, many = synth_users(random_mixture_spec(80, 50, 50, 64, seed=seed))
        wins += many > few
    assert wins >= 9


def test_dataset_round_trip(tmp_path):
    users = {
        "alice": SparseDist(8, {gp(1, 2, 8): 0.25, gp(3, 3, 8): 0.75}),
        "bob": SparseDist(8, {gp(0, 0, 8): 1.0}),
    }
    path = tmp_path / "cell.csv"
    write_dataset(path, users, 8, manifest_extra={"note": "fixture"})
    back, manifest = read_dataset(path)
    assert manifest["resolution"] == 8
    assert manifest["n_users"] == 2
    assert manifest["note"] == "fixture"
    assert back.keys() == users.keys()
    for uid in users:
        assert back[uid].entries == users[uid].entries


def test_write_dataset_writes_the_bytes_of_a_row_by_row_loop(tmp_path):
    rng = np.random.default_rng(62)
    users = {
        uid: SparseDist.from_keys(64, keys, rng.dirichlet(np.ones(len(keys))))
        for uid, keys in [
            ('say "hi"', [4095, 3, 64, 0]),
            ("b,c", [7, 6, 5]),
            ("a", [1000]),
            ("z\nline", [12, 2048, 11]),
        ]
    }
    users["empty"] = SparseDist(64)
    users["fine"] = rand_sparse(rng, 64, 50)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_dataset(got, users, 64)
    loop_write_csv(want, users, 64)
    assert got.read_bytes() == want.read_bytes()
    assert b'"b,c"' in got.read_bytes() and b'"say ""hi"""' in got.read_bytes()


def test_dataset_round_trip_is_bit_exact_on_a_fine_grid(tmp_path):
    rng = np.random.default_rng(61)
    users = {f"u{k:04d}": rand_sparse(rng, 1024, int(rng.integers(1, 40))) for k in range(300)}
    path = tmp_path / "fine.csv"
    write_dataset(path, users, 1024)
    back, manifest = read_dataset(path)
    assert manifest == {"resolution": 1024, "n_users": 300}
    assert list(back) == sorted(users)
    for uid, p in users.items():
        q = back[uid]
        assert q.resolution == 1024
        assert list(q.entries) == support(p)
        assert all(q.entries[g] == m for g, m in p.entries.items())
    # the on-disk format: rows by user id, then (iy, ix); masses as repr
    lines = ["user_id,ix,iy,mass"] + [
        f"{uid},{g.ix},{g.iy},{users[uid].entries[g]!r}"
        for uid in sorted(users)
        for g in support(users[uid])
    ]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_read_dataset_merges_a_user_split_across_rows(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("user_id,ix,iy,mass\nb,0,0,0.5\na,1,1,1.0\nb,1,0,0.5\n")
    (tmp_path / "cell.json").write_text('{"resolution": 2, "n_users": 2}\n')
    users, _ = read_dataset(path)
    assert list(users) == ["b", "a"]
    assert list(users["b"].entries.items()) == [(gp(0, 0, 2), 0.5), (gp(1, 0, 2), 0.5)]


def test_read_dataset_rejects_a_repeated_row(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("user_id,ix,iy,mass\nb,0,0,0.5\na,1,1,1.0\nb,1,0,0.25\nb,0,0,0.25\n")
    (tmp_path / "cell.json").write_text('{"resolution": 2, "n_users": 2}\n')
    with pytest.raises(ValueError, match=r"cell\.csv repeats 1 \(user_id, ix, iy\) rows of 4"):
        read_dataset(path)


def test_read_dataset_rejects_a_nan_mass(tmp_path):
    # a NaN row beside a unit-mass row used to read back as a unit-mass user
    path = tmp_path / "cell.csv"
    path.write_text("user_id,ix,iy,mass\nu0,0,0,nan\nu0,1,0,1.0\n")
    (tmp_path / "cell.json").write_text('{"resolution": 2, "n_users": 1}\n')
    with pytest.raises(ValueError, match="negative or not finite"):
        read_dataset(path)


def test_read_dataset_rejects_a_file_missing_a_user(tmp_path):
    users = {f"u{k}": SparseDist(8, {gp(k, 1, 8): 0.5, gp(k, 2, 8): 0.5}) for k in range(5)}
    path = tmp_path / "cell.csv"
    write_dataset(path, users, 8)
    assert len(read_dataset(path)[0]) == 5
    # drop the last user's two rows, as a cut-off copy would
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))
    with pytest.raises(ValueError, match=r"cell\.csv holds 4 users, its manifest 5"):
        read_dataset(path)


@pytest.mark.parametrize("name", ["users.jsonl.gz", "users.json", "users.csv.gz", "users"])
def test_dataset_io_rejects_a_non_csv_name(tmp_path, name):
    users = {"alice": SparseDist(8, {gp(1, 2, 8): 1.0})}
    with pytest.raises(ValueError, match=r"\.csv"):
        write_dataset(tmp_path / name, users, 8)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=r"\.csv"):
        read_dataset(tmp_path / name)


def test_write_dataset_rejects_a_user_off_the_manifest_resolution(tmp_path):
    users = {
        "zed": SparseDist(16, {gp(3, 4, 16): 1.0}),
        "amy": SparseDist(64, {gp(3, 4, 64): 1.0}),
        "bob": SparseDist(16, {gp(5, 6, 16): 1.0}),
    }
    # the first such user in user-id order, before any file is written
    with pytest.raises(ValueError, match="user 'bob' has resolution 16, not 64"):
        write_dataset(tmp_path / "cell.csv", users, 64)
    assert list(tmp_path.iterdir()) == []


def test_read_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("a,b,c,d\n")
    (tmp_path / "cell.json").write_text('{"resolution": 8, "n_users": 0}\n')
    with pytest.raises(ValueError):
        read_dataset(path)


def test_open_maybe_gzip(tmp_path):
    plain = tmp_path / "log.tsv"
    plain.write_text("hello\n")
    with open_maybe_gzip(plain) as f:
        assert f.read() == "hello\n"
    zipped = tmp_path / "log.tsv.gz"
    with gzip.open(zipped, "wt") as f:
        f.write("hello\n")
    with open_maybe_gzip(zipped) as f:
        assert f.read() == "hello\n"
