"""Model construction, dataset generation, optimiser and trainer tests."""

import numpy as np
import pytest

from repro.nn.data import DATASET_NAMES, make_dataset
from repro.nn.layers import Parameter
from repro.nn.models import MODEL_NAMES, build_model
from repro.nn.optim import SGD, cosine_lr
from repro.nn.tensor import Tensor
from repro.nn.trainer import Trainer
from repro.utils.config import TrainConfig


class TestModels:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_forward_shape(self, name, rng):
        model = build_model(name, num_classes=7, width_mult=0.125, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        out = model(x)
        assert out.shape == (2, 7)

    def test_width_mult_scales_parameters(self, rng):
        small = build_model("vgg11", 10, 0.125, rng).num_parameters()
        large = build_model("vgg11", 10, 0.25, rng).num_parameters()
        assert large > 2 * small

    def test_resnet12_smaller_than_resnet18(self, rng):
        r12 = build_model("resnet12", 10, 0.25, rng)
        r18 = build_model("resnet18", 10, 0.25, rng)
        conv_count = lambda m: sum(  # noqa: E731
            1 for _, mod in m.named_modules() if type(mod).__name__ == "Conv2d"
        )
        assert conv_count(r18) - conv_count(r12) == 6  # paper: remove 6 convs

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model("alexnet")

    def test_init_deterministic_under_seed(self):
        a = build_model("vgg11", 10, 0.125, np.random.default_rng(3))
        b = build_model("vgg11", 10, 0.125, np.random.default_rng(3))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestDatasets:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_shapes_and_classes(self, name, rng):
        ds = make_dataset(name, n_train=64, n_test=32, rng=rng)
        assert ds.x_train.shape == (64, 3, 32, 32)
        assert ds.x_test.shape == (32, 3, 32, 32)
        expected = 100 if "100" in name else 10
        assert ds.num_classes == expected
        assert ds.y_train.max() < expected

    def test_standardised(self, rng):
        ds = make_dataset("synth-cifar10", 256, 64, rng=rng)
        assert abs(ds.x_train.mean()) < 0.05
        assert ds.x_train.std() == pytest.approx(1.0, abs=0.05)

    def test_deterministic_generation(self):
        a = make_dataset("synth-svhn", 32, 16, rng=np.random.default_rng(5))
        b = make_dataset("synth-svhn", 32, 16, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_unknown_dataset_rejected(self, rng):
        with pytest.raises(ValueError):
            make_dataset("imagenet", rng=rng)


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[:] = [0.5, 0.5]
        SGD([p], lr=0.1, momentum=0.0).step()
        np.testing.assert_allclose(p.data, [0.95, 1.95])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = [1.0]
        opt.step()  # v=1, p=-1
        p.grad[:] = [1.0]
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay_pulls_to_zero(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        p.grad[:] = [0.0]
        opt.step()
        assert p.data[0] < 10.0

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=-1)
        with pytest.raises(ValueError):
            SGD([], lr=0.1, momentum=1.0)

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(1.0, 0, 10, final_fraction=0.1) == pytest.approx(1.0)
        assert cosine_lr(1.0, 10, 10, final_fraction=0.1) == pytest.approx(0.1)
        mid = cosine_lr(1.0, 5, 10, final_fraction=0.1)
        assert 0.1 < mid < 1.0


class TestTrainer:
    def test_fault_free_training_learns(self, rng):
        cfg = TrainConfig(
            model="vgg11", epochs=3, batch_size=32, n_train=256,
            n_test=128, width_mult=0.125, lr=0.05,
        )
        ds = make_dataset(cfg.dataset, cfg.n_train, cfg.n_test, rng=rng)
        model = build_model(cfg.model, ds.num_classes, cfg.width_mult, rng)
        result = Trainer(model, ds, cfg, rng).fit()
        assert len(result.history) == 3
        assert result.best_accuracy > 0.2  # clearly above 10% chance

    def test_hook_called_every_epoch(self, rng, tiny_train_config):
        ds = make_dataset("synth-cifar10", 32, 32, rng=rng)
        model = build_model("vgg11", 10, 0.125, rng)
        trainer = Trainer(model, ds, tiny_train_config, rng)
        calls = []
        trainer.fit(on_epoch_end=lambda e, t: calls.append(e))
        assert calls == [0]

    def test_evaluate_supplied_inputs_needs_labels(self, rng, tiny_train_config):
        ds = make_dataset("synth-cifar10", 32, 32, rng=rng)
        model = build_model("vgg11", 10, 0.125, rng)
        trainer = Trainer(model, ds, tiny_train_config, rng)
        predicted = []
        trainer.predict = lambda *args, **kwargs: predicted.append(args)
        # A ValueError, not an assert that ``python -O`` strips, and
        # raised before any predict pass runs.
        with pytest.raises(ValueError, match="labels"):
            trainer.evaluate(ds.x_test)
        assert predicted == []
        del trainer.predict
        assert trainer.evaluate(ds.x_test, ds.y_test) == trainer.evaluate()

    def test_final_accuracy_is_tail_mean(self, rng):
        cfg = TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=32,
            n_test=32, width_mult=0.125,
        )
        ds = make_dataset("synth-cifar10", 32, 32, rng=rng)
        model = build_model("vgg11", 10, 0.125, rng)
        result = Trainer(model, ds, cfg, rng).fit()
        tail = [h["test_acc"] for h in result.history[-2:]]
        assert result.final_accuracy == pytest.approx(np.mean(tail))
