"""
When planes are not enough: the random feature lift
===================================================

Concentric circles defeat any arrangement of planes in the raw
coordinates. Lifting inputs through random cosine features makes the
rings linearly separable, and the automatic lift selection discovers
this on its own by probing each candidate on held-out data.
"""

import numpy as np

from planemix import workflow
from planemix.features import rff_transform, sample_rff
from planemix.training import TrainConfig

data = workflow.generate_dataset("circles", n=1500, seed=1)
train, val, test = workflow.split_dataset(data, 1)
config = TrainConfig(max_epochs=80, seed=1)

# planes in raw coordinates, no lift allowed
flat = workflow.train_classifier(train, val, lift="linear", config=config)
flat_acc = workflow.evaluate_model(flat.model, test)["accuracy"]

# automatic selection probes a linear candidate against several kernel
# widths and keeps the winner
auto = workflow.train_classifier(train, val, config=config)
auto_acc = workflow.evaluate_model(auto.model, test)["accuracy"]

print(f"raw planes:     accuracy {flat_acc:.4f}")
print(f"auto-picked:    accuracy {auto_acc:.4f} using {auto.lift_description}")
print("\nprobe results behind the choice:")
for probe in auto.lift_probes:
    score = "failed" if probe.error else f"{probe.val_loglik:.4f}"
    print(f"  {probe.config.describe():<26} val log-lik {score}")

# The lift works because random cosine pairs approximate the gaussian
# kernel: the feature dot product converges on the kernel value as the
# frequency count grows.
rng = np.random.default_rng(0)
x, y = rng.standard_normal((2, 200, 2))
exact = np.exp(-1.0 * ((x - y) ** 2).sum(axis=1))
for n_freq in (8, 64, 512, 4096):
    rff = sample_rff(2, n_freq, 1.0, seed=0)
    approx = (rff_transform(rff, x) * rff_transform(rff, y)).sum(axis=1) / 2.0
    print(f"frequencies {n_freq:>5}: mean |kernel error| "
          f"{np.abs(approx - exact).mean():.4f}")
