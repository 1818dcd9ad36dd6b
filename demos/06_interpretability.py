"""
Reading a fitted model back as geometry
=======================================

With a sharp pooling temperature each prediction is effectively decided
by one plane, so a fitted model can be read plane by plane: how much of
each class a plane answers for, how concentrated the responsibilities
are, and, for affine lifts, which raw features a plane weighs.
"""

import numpy as np

from planemix import diagnostics, workflow
from planemix.training import TrainConfig

data = workflow.generate_dataset("aniso", seed=4)
train, val, test = workflow.split_dataset(data, 4)
result = workflow.train_classifier(
    train, val, lift="linear", config=TrainConfig(max_epochs=80, seed=4))
mdl = result.model

print(f"plane budget per class: {list(result.budget.per_class)} "
      f"(cap {result.budget.cap})")

stats = diagnostics.responsibility_stats(mdl, test.features, test.labels)
print(f"\nmean winning responsibility {stats.mean_max:.3f} "
      f"(1.0 means one plane per decision)")
print(f"mean responsibility entropy {stats.mean_entropy:.3f} nats")

usage = diagnostics.plane_usage(mdl, test.features, test.labels)
print("\nshare of each class answered by each plane:")
for c, row in enumerate(usage.fractions):
    shares = ", ".join(f"plane {m}: {100 * f:.0f}%"
                       for m, f in enumerate(row))
    print(f"  class {c}: {shares}")

# The lift is affine here, so plane weights fold back into raw feature
# units and can be ranked.
print("\nstrongest plane weights in raw units:")
for c in range(mdl.class_count):
    for m in range(int(mdl.planes_per_class[c])):
        ranked = diagnostics.plane_saliency(mdl, c, m,
                                            feature_names=["x0", "x1"])
        desc = ", ".join(f"{name} {w:+.2f}" for name, w in ranked)
        print(f"  class {c} plane {m}: {desc}")
