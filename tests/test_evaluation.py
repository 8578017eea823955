import numpy as np

from hssfl.datahub import synth_mixture
from hssfl import evaluation
from hssfl.evaluation import (
    LinearProbe,
    ProbeConfig,
    collab_report,
    probe_accuracy_for_model,
    stratified_split,
    train_probe,
)

score = evaluation.test_accuracy
from hssfl.numkit import RngStream
from hssfl.sslnet import MlpSpec, init_client_model


class TestTrainProbe:
    def test_separable_two_class(self):
        gen = RngStream(0, purpose="sep").generator()
        reps = np.concatenate([gen.normal(-3.0, 0.3, size=(100, 1)),
                               gen.normal(3.0, 0.3, size=(100, 1))])
        labels = np.array([0] * 100 + [1] * 100)
        probe = train_probe(reps, labels, ProbeConfig(epochs=30, seed=1))
        assert score(probe, reps, labels) == 1.0

    def test_shuffled_labels_chance_level(self):
        gen = RngStream(1, purpose="chance").generator()
        reps = gen.normal(size=(5000, 4))
        labels = gen.integers(0, 5, size=5000)
        probe = train_probe(reps, labels, ProbeConfig(epochs=10, seed=2))
        acc = score(probe, reps, labels)
        assert abs(acc - 0.2) < 0.05

    def test_zero_epochs_is_zero_logit_classifier(self):
        gen = RngStream(2, purpose="zero").generator()
        reps = gen.normal(size=(50, 3))
        labels = gen.integers(0, 4, size=50)
        probe = train_probe(reps, labels, ProbeConfig(epochs=0))
        assert np.all(probe.weights == 0.0) and np.all(probe.biases == 0.0)
        # all-zero logits: argmax ties break to class 0
        expected = float(np.mean(labels == 0))
        assert score(probe, reps, labels) == expected


def cross_entropy(probe, reps, labels):
    logits = reps @ probe.weights + probe.biases
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(labels)), labels]))


class TestProbeLossDecreases:
    def test_cross_entropy_decreases_with_training(self):
        gen = RngStream(20, purpose="ce").generator()
        reps = np.concatenate([gen.normal(-2.0, 1.0, size=(150, 3)),
                               gen.normal(2.0, 1.0, size=(150, 3))])
        labels = np.array([0] * 150 + [1] * 150)
        ce = []
        for epochs in (0, 5, 25):
            probe = train_probe(reps, labels, ProbeConfig(epochs=epochs, seed=3))
            ce.append(cross_entropy(probe, reps, labels))
        assert ce[2] < ce[1] < ce[0]


class TestTestAccuracy:
    def test_memorized_single_point(self):
        probe = LinearProbe(np.array([[1.0, -1.0]]), np.zeros(2), 1, 0.1)
        assert score(probe, np.array([[2.0]]), [0]) == 1.0

    def test_all_zero_probe_predicts_class_zero(self):
        probe = LinearProbe(np.zeros((3, 4)), np.zeros(4), 0, 0.1)
        reps = RngStream(3, purpose="z").generator().normal(size=(20, 3))
        labels = np.arange(20) % 4
        assert score(probe, reps, labels) == float(np.mean(labels == 0))

    def test_matches_brute_force_scorer(self):
        gen = RngStream(4, purpose="brute").generator()
        probe = LinearProbe(gen.normal(size=(3, 5)), gen.normal(size=5), 1, 0.1)
        reps = gen.normal(size=(40, 3))
        labels = gen.integers(0, 5, size=40)
        correct = 0
        for row, lab in zip(reps, labels):
            logits = [float(row @ probe.weights[:, c] + probe.biases[c])
                      for c in range(5)]
            best = max(range(5), key=lambda c: (logits[c], -c))
            correct += int(best == lab)
        assert score(probe, reps, labels) == correct / 40

    def test_row_permutation_invariant(self):
        gen = RngStream(5, purpose="perm").generator()
        probe = LinearProbe(gen.normal(size=(2, 3)), np.zeros(3), 1, 0.1)
        reps = gen.normal(size=(30, 2))
        labels = gen.integers(0, 3, size=30)
        perm = gen.permutation(30)
        assert score(probe, reps, labels) == score(
            probe, reps[perm], labels[perm]
        )


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        labels = np.repeat(np.arange(4), 50)
        train, test = stratified_split(labels, 0.2, RngStream(6, purpose="split"))
        assert len(train) + len(test) == 200
        assert not set(train) & set(test)
        for c in range(4):
            assert np.sum(labels[test] == c) == 10

    def test_seeded(self):
        labels = np.repeat(np.arange(3), 30)
        a = stratified_split(labels, 0.2, RngStream(7, purpose="split"))
        b = stratified_split(labels, 0.2, RngStream(7, purpose="split"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestProbeOnEncoder:
    def test_probe_never_mutates_encoder(self):
        spec = MlpSpec((8, 4), "relu")
        model = init_client_model(spec, 4, 0.99, RngStream(8, purpose="init"))
        ds = synth_mixture(4, 8, 40, 4.0, 0.5, RngStream(9, purpose="synth"))
        before = [w.tobytes() for w in model.online_w] + [model.pred_w.tobytes()]
        train, test = stratified_split(ds.labels, 0.2, RngStream(10, purpose="split"))
        probe_accuracy_for_model(model, ds.features, ds.labels, train, test,
                                 ProbeConfig(epochs=5))
        after = [w.tobytes() for w in model.online_w] + [model.pred_w.tobytes()]
        assert before == after


class TestCollabReport:
    def test_identical_runs_zero_delta(self):
        specs = [MlpSpec((8, 4), "relu"), MlpSpec((8, 6), "relu")]
        models = [init_client_model(s, s.output_width, 0.99,
                                    RngStream(k, purpose="init"))
                  for k, s in enumerate(specs)]
        ds = synth_mixture(4, 8, 50, 4.0, 0.5, RngStream(11, purpose="synth"))
        rows = collab_report(models, [m.copy() for m in models],
                             ds.features, ds.labels,
                             ProbeConfig(epochs=3), split_seed=1)
        assert len(rows) == 2
        for row in rows:
            assert row["delta"] == 0.0

    def test_groups_by_architecture(self):
        spec_a, spec_b = MlpSpec((8, 4), "relu"), MlpSpec((8, 6), "relu")
        models = [init_client_model(s, s.output_width, 0.99,
                                    RngStream(k, purpose="init"))
                  for k, s in enumerate([spec_a, spec_a, spec_b])]
        ds = synth_mixture(4, 8, 50, 4.0, 0.5, RngStream(12, purpose="synth"))
        rows = collab_report(models, [m.copy() for m in models],
                             ds.features, ds.labels,
                             ProbeConfig(epochs=2), split_seed=2)
        by_arch = {r["architecture"]: r for r in rows}
        assert by_arch["8x4-relu"]["clients"] == [0, 1]
        assert by_arch["8x6-relu"]["clients"] == [2]
