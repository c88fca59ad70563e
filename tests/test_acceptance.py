"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
reported rates.  Training-based criteria use the synthetic benchmark and
stay within desktop-CPU budgets.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
from gradcheck import grad_check, global_loss_closure, local_loss_closure, random_fnet
from permention import beliefs, crf_score, run_lbp

from entlink.attention import MentionInstance, floored_log_prior, predict_local
from entlink.crf import CrfInstance, instance_marginals, predict_global
from entlink.experiment import (
    ExperimentConfig,
    _load_or_generate,
    _train_embeddings,
    fit,
    prepare,
    run_experiment,
)
from entlink.priors import PriorSource, build_prior, select_candidates
from entlink.training import accuracy, predict_prior_baseline
from entlink.vectors import EmbeddingStore


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def random_mention_instances(rng, n, s, ctx_len, dim):
    out = []
    for _ in range(n):
        vecs = rng.normal(size=(s, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        p = rng.dirichlet(np.ones(s))
        out.append(MentionInstance(
            cand_vecs=vecs,
            ctx_vecs=rng.normal(size=(ctx_len, dim)),
            log_priors=np.array([floored_log_prior(x) for x in p]),
            gold_index=int(rng.integers(s)),
            entities=list(range(s))))
    return out


def random_crf_instance(rng, n, max_s, dim=16, coupling=0.7):
    sizes = [int(rng.integers(2, max_s + 1)) for _ in range(n)]
    unaries, cand_vecs, entities, log_priors = [], [], [], []
    base = 0
    for s in sizes:
        unaries.append(rng.normal(size=s))
        vecs = rng.normal(size=(s, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        cand_vecs.append(vecs)
        entities.append(list(range(base, base + s)))
        base += s
        log_priors.append(np.full(s, floored_log_prior(1.0 / s)))
    return CrfInstance(unaries=unaries, cand_vecs=cand_vecs, entities=entities,
                       log_priors=log_priors, c=coupling * rng.normal(size=dim))


class TestCriterion1GradientFidelity:
    def test_gradients_match_finite_differences(self):
        started = time.monotonic()
        dim = 8
        worst_local = 0.0
        worst_global = 0.0
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            fnet = random_fnet(hidden=100, rng=rng)
            params = {"A": 1.0 + 0.1 * rng.normal(size=dim),
                      "B": 1.0 + 0.1 * rng.normal(size=dim),
                      **fnet.param_dict()}
            local = local_loss_closure(
                random_mention_instances(rng, n=2, s=3, ctx_len=10, dim=dim),
                gamma=0.05, r=5)
            rep = grad_check(local, params, coords_per_param=12, rng=rng)
            worst_local = max(worst_local, rep.overall_max())
            checked += rep.checked

            params["C"] = 1.0 + 0.1 * rng.normal(size=dim)
            glob = global_loss_closure(
                random_mention_instances(rng, n=3, s=3, ctx_len=6, dim=dim),
                gamma=0.05, r=3, delta=0.5, t=3)
            rep = grad_check(glob, params, coords_per_param=12, rng=rng)
            worst_global = max(worst_global, rep.overall_max())
            checked += rep.checked
        elapsed = time.monotonic() - started
        passed = worst_local < 1e-4 and worst_global < 1e-4 and elapsed < 60.0
        report("criterion 1 (gradient fidelity)", passed,
               f"local max rel err {worst_local:.2e}, global {worst_global:.2e}, "
               f"{checked} coordinates over 20+20 instances in {elapsed:.1f}s")
        assert worst_local < 1e-4
        assert worst_global < 1e-4
        assert elapsed < 60.0


class TestCriterion2ExactInference:
    def test_tree_exactness_and_loopy_map_rate(self):
        started = time.monotonic()
        rng = np.random.default_rng(42)
        tree_hits = 0
        for _ in range(500):
            inst = random_crf_instance(rng, n=2, max_s=4)
            mu = beliefs(run_lbp(inst, t=2, delta=1.0), inst)
            sizes = inst.valid.sum(axis=1)
            exact = [np.full(s, -np.inf) for s in sizes]
            for a0 in range(sizes[0]):
                for a1 in range(sizes[1]):
                    score = crf_score([a0, a1], inst)
                    exact[0][a0] = max(exact[0][a0], score)
                    exact[1][a1] = max(exact[1][a1], score)
            ok = all(int(np.argmax(mu[i])) == int(np.argmax(exact[i]))
                     for i in range(2))
            tree_hits += int(ok)

        map_hits = 0
        for _ in range(500):
            inst = random_crf_instance(rng, n=int(rng.integers(2, 5)), max_s=4)
            mu = beliefs(run_lbp(inst, t=10, delta=0.5), inst)
            got = [int(np.argmax(m)) for m in mu]
            best, best_score = None, -np.inf
            for assignment in itertools.product(
                    *[range(s) for s in inst.valid.sum(axis=1)]):
                score = crf_score(list(assignment), inst)
                if score > best_score:
                    best, best_score = list(assignment), score
            map_hits += int(got == best)
        elapsed = time.monotonic() - started
        map_rate = map_hits / 500.0
        passed = tree_hits == 500 and map_rate >= 0.9 and elapsed < 120.0
        report("criterion 2 (exact-inference oracle)", passed,
               f"trees 500/500 exact: {tree_hits == 500}; loopy MAP agreement "
               f"{map_rate:.1%} (>= 90% required) in {elapsed:.1f}s")
        assert tree_hits == 500
        assert map_rate >= 0.9
        assert elapsed < 120.0


class TestCriterion3Truncation:
    def test_t5_within_one_point_of_t10(self):
        accs = {5: [], 10: []}
        for seed in (0, 1, 2):
            # longer, gentler training: both depths converge steadily
            cfg = ExperimentConfig(seed=seed, out_dir="unused",
                                   global_lr=3e-3, global_epochs=50,
                                   patience=50)
            prepared = prepare(cfg)
            for t in (5, 10):
                sub = replace(cfg, t=t)
                model, _ = fit(sub, "train-global", prepared.store, prepared.corpora)
                accs[t].append(accuracy(
                    prepared.corpora["test"],
                    lambda d: predict_global(d, model, prepared.store)))
        mean5 = float(np.mean(accs[5]))
        mean10 = float(np.mean(accs[10]))
        passed = mean5 >= mean10 - 0.01
        report("criterion 3 (truncation study)", passed,
               f"accuracy(T=5)={mean5:.3f} vs accuracy(T=10)={mean10:.3f} "
               f"over 3 seeds (allowed drop 1.0 point)")
        assert mean5 >= mean10 - 0.01


class TestCriterion4HardAttention:
    def test_tuned_pruning_beats_no_pruning(self):
        grid = (10, 20, 30)
        full_k = 40
        tuned_accs, full_accs = [], []
        for seed in range(5):
            cfg = ExperimentConfig(seed=seed, out_dir="unused",
                                   noise_rate=0.7, k=full_k, ctx_per_side=15,
                                   weak_context_rate=0.15, local_epochs=25)
            prepared = prepare(cfg)
            best_val, best_model = -1.0, None
            for r in grid:
                model, _ = fit(replace(cfg, local_r=r), "train-local",
                               prepared.store, prepared.corpora)
                val = accuracy(prepared.corpora["validation"],
                               lambda d: predict_local(d, model, prepared.store))
                if val > best_val:
                    best_val, best_model = val, model
            tuned_accs.append(accuracy(
                prepared.corpora["test"],
                lambda d: predict_local(d, best_model, prepared.store)))
            full_model, _ = fit(replace(cfg, local_r=full_k), "train-local",
                                prepared.store, prepared.corpora)
            full_accs.append(accuracy(
                prepared.corpora["test"],
                lambda d: predict_local(d, full_model, prepared.store)))
        tuned = float(np.mean(tuned_accs))
        full = float(np.mean(full_accs))
        passed = tuned > full
        report("criterion 4 (hard-attention study)", passed,
               f"tuned R<K mean accuracy {tuned:.3f} vs R=K {full:.3f} "
               f"over 5 seeds (noise 0.7, K=40)")
        assert tuned > full


class TestCriterion5ModelOrdering:
    def test_prior_local_global_ordering(self):
        started = time.monotonic()
        rows = []
        for seed in range(5):
            cfg = ExperimentConfig(seed=seed, out_dir="unused", coherence=0.9)
            prepared = prepare(cfg)
            prior_acc = accuracy(prepared.corpora["test"], predict_prior_baseline)
            local, _ = fit(cfg, "train-local", prepared.store, prepared.corpora)
            local_acc = accuracy(prepared.corpora["test"],
                                 lambda d: predict_local(d, local, prepared.store))
            global_, _ = fit(cfg, "train-global", prepared.store, prepared.corpora)
            global_acc = accuracy(
                prepared.corpora["test"],
                lambda d: predict_global(d, global_, prepared.store))
            rows.append((prior_acc, local_acc, global_acc))
        elapsed = time.monotonic() - started
        prior_m, local_m, global_m = (float(np.mean([r[i] for r in rows]))
                                      for i in range(3))
        wins = sum(int(r[2] >= r[1]) for r in rows)
        cond_floor = local_m >= prior_m + 0.10
        cond_ceiling = local_m <= global_m + 0.01
        cond_wins = wins >= 4
        cond_time = elapsed < 900.0
        passed = cond_floor and cond_ceiling and cond_wins and cond_time
        report("criterion 5 (model ordering)", passed,
               f"prior {prior_m:.3f} + 0.10 <= local {local_m:.3f} <= "
               f"global {global_m:.3f} + 0.01; global >= local on {wins}/5 "
               f"seeds; training took {elapsed:.0f}s (< 900s)")
        assert cond_floor, (prior_m, local_m)
        assert cond_ceiling, (local_m, global_m)
        assert cond_wins, rows
        assert cond_time, elapsed


class TestCriterion6EmbeddingQuality:
    def test_trained_map_and_random_chance(self):
        cfg = ExperimentConfig(seed=0, out_dir="unused")
        prepared = _load_or_generate(cfg)
        store = prepared.store
        chance = float(np.mean([
            sum(label for _, label in q.candidates) / len(q.candidates)
            for q in prepared.queries]))
        rng = np.random.default_rng(123)
        vs = [rng.normal(size=store.dim) for _ in range(store.n_entities)]
        store.set_entity_rows(np.arange(store.n_entities), [v / np.linalg.norm(v) for v in vs])
        from entlink.embed_train import eval_relatedness

        random_map = eval_relatedness(prepared.queries, store).map
        _train_embeddings(cfg, prepared)
        trained = prepared.relatedness
        norms = np.linalg.norm(store.entity_matrix(), axis=1)
        norm_ok = bool(np.all(np.abs(norms - 1.0) < 1e-6))
        passed = (trained.map >= 0.9 and abs(random_map - chance) <= 0.1
                  and norm_ok)
        report("criterion 6 (embedding quality)", passed,
               f"trained MAP {trained.map:.3f} (>= 0.9); random MAP "
               f"{random_map:.3f} vs chance {chance:.3f} (within 0.1); "
               f"all norms unit: {norm_ok}")
        assert trained.map >= 0.9
        assert abs(random_map - chance) <= 0.1
        assert norm_ok


class TestCriterion7CandidateSelection:
    def test_selection_matches_oracle_on_1000_instances(self):
        def oracle(dist, ctx_vec, store, s, p_top, c_top, precut):
            pool = sorted(dist, key=lambda t: (-t[1], t[0]))[:precut]
            limit = min(s, len(pool))
            keep = [e for e, _ in pool[:p_top]][:limit]
            if ctx_vec is not None and len(keep) < limit:
                ranked = sorted(pool, key=lambda t: (
                    -float(np.dot(store.entity_vec(t[0]), ctx_vec)), t[0]))
                picked = 0
                for e, _ in ranked:
                    if picked == c_top or len(keep) == limit:
                        break
                    if e not in keep:
                        keep.append(e)
                        picked += 1
            for e, _ in pool:
                if len(keep) == limit:
                    break
                if e not in keep:
                    keep.append(e)
            return keep

        rng = np.random.default_rng(7)
        store = EmbeddingStore(6)
        for i in range(12):
            v = rng.normal(size=6)
            store.add_words([f"w{i}"], [v / np.linalg.norm(v)])
        for i in range(80):
            v = rng.normal(size=6)
            store.add_entities([f"E{i}"], [v / np.linalg.norm(v)])
        mismatches = 0
        size_ok = True
        for _ in range(1000):
            n_cand = int(rng.integers(1, 60))
            entities = rng.choice(80, size=n_cand, replace=False)
            table = {"m": [(int(e), float(rng.integers(1, 100)))
                           for e in entities]}
            prior = build_prior([PriorSource(table)])
            ctx_words = [int(w) for w in
                         rng.choice(12, size=int(rng.integers(0, 5)),
                                    replace=False)]
            got = select_candidates("m", ctx_words, prior, store)
            size_ok &= len(got) <= 7
            size_ok &= len({c.entity for c in got}) == len(got)
            ctx_vec = None
            if ctx_words:
                ctx_vec = np.mean(store.word_matrix()[ctx_words], axis=0)
            want = oracle(prior.lookup("m"), ctx_vec, store, 7, 4, 3, 30)
            mismatches += int([c.entity for c in got] != want)
        passed = mismatches == 0 and size_ok
        report("criterion 7 (candidate-selection contract)", passed,
               f"{1000 - mismatches}/1000 instances match the independent "
               f"oracle; |candidates| <= 7 and duplicate-free: {size_ok}")
        assert mismatches == 0
        assert size_ok


class TestCriterion8NormalizationAndDeterminism:
    def test_message_normalization_across_runs(self):
        # validation is enabled inside every run; exercise a spread of
        # shapes and damping factors explicitly
        rng = np.random.default_rng(11)
        runs = 0
        for _ in range(100):
            inst = random_crf_instance(rng, n=int(rng.integers(2, 6)), max_s=5)
            delta = float(rng.uniform(0.2, 1.0))
            run_lbp(inst, t=int(rng.integers(1, 8)), delta=delta)
            runs += 1
        report("criterion 8a (message normalization)", True,
               f"{runs} randomized runs validated to 1e-6")

    def test_identical_seeds_byte_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(
            seed=4, out_dir=str(tmp_path / "a"), kb_size=80, vocab_size=800,
            n_docs=50, mentions_per_doc=4, embed_iters=150, local_epochs=6,
            global_epochs=5, patience=10, t=5, dim=12, k=30, ctx_per_side=6)
        run_experiment(cfg)
        run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))
        identical = True
        for name in ("metrics.tsv", "report.txt", "attention.tsv",
                     "breakdown.tsv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            identical &= a == b
        report("criterion 8b (determinism)", identical,
               "two identically seeded single-threaded runs produced "
               f"byte-identical reports: {identical}")
        assert identical


class TestCriterion9Throughput:
    def _timed_instance(self, rng, n, s, d=300):
        unaries, cand_vecs, entities, log_priors = [], [], [], []
        base = 0
        for _ in range(n):
            unaries.append(rng.normal(size=s))
            vecs = rng.normal(size=(s, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            cand_vecs.append(vecs)
            entities.append(list(range(base, base + s)))
            base += s
            log_priors.append(np.full(s, floored_log_prior(1.0 / s)))
        return CrfInstance(unaries=unaries, cand_vecs=cand_vecs,
                           entities=entities, log_priors=log_priors,
                           c=np.ones(d) * 0.1)

    def test_inference_latency_and_s_profile(self):
        from entlink.crf import GlobalParams

        rng = np.random.default_rng(0)
        n = 20
        params = GlobalParams.init(300, hidden=100, t=10, delta=0.5)

        def time_s(s, reps=5):
            inst = self._timed_instance(rng, n=n, s=s)
            instance_marginals(inst, params)  # warm-up
            best = np.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                instance_marginals(inst, params)
                best = min(best, time.perf_counter() - t0)
            return best

        per_doc = {s: time_s(s) for s in (4, 7, 14)}
        ms_per_mention = per_doc[7] / n * 1000.0
        profile = " ".join(f"S={s}:{per_doc[s] * 1000:.1f}ms"
                           for s in (4, 7, 14))
        passed = ms_per_mention < 10.0 and per_doc[14] > per_doc[4]
        report("criterion 9 (throughput)", passed,
               f"{ms_per_mention:.2f} ms/mention at n=20, S=7, T=10, d=300 "
               f"(< 10 ms); per-document cost grows with S: {profile}")
        assert ms_per_mention < 10.0
        assert per_doc[14] > per_doc[4]
