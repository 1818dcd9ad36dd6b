"""
How soft-OR pooling turns planes into class scores
==================================================

A class is scored by the best of its hyperplanes, but "best" is softened:
the pooled score is a log-sum-exp of the plane scores with a sharpness
knob. This script builds a two-class model by hand and walks the knob
from mushy to crisp.
"""

import numpy as np

from planemix.features import identity_pipeline
from planemix.model import (PlaneMixture, class_scores, lifted_plane_scores,
                            plane_responsibilities, posterior)

# Class 0 owns two planes that fire on the right and top halves of the
# plane; class 1 owns a single plane firing on the left.
weights = np.array([[1.0, 0.0],
                    [0.0, 1.0],
                    [-1.0, 0.0]])
biases = np.zeros(3)
offsets = np.array([0, 2, 3])
class_0 = slice(0, 2)  # the columns of class 0's planes

x = np.array([[0.8, 0.6]])

print("one input, rising sharpness:")
for alpha in (1.0, 3.0, 6.0, 30.0):
    mdl = PlaneMixture(weights, biases, offsets, alpha, identity_pipeline(2))
    scores = class_scores(mdl, x)[0]
    resp = plane_responsibilities(mdl, x)[0, class_0]
    print(f"  sharpness {alpha:5.1f}: class scores "
          f"{np.round(scores, 4)}  class-0 responsibilities "
          f"{np.round(resp, 3)}")

# Two properties worth seeing with numbers rather than algebra.
#
# First, the pooled score is sandwiched between the best plane and the
# best plane plus log(m)/alpha, so pooling can only exceed the max by a
# margin that shrinks as sharpness grows.
alpha = 3.0
mdl = PlaneMixture(weights, biases, offsets, alpha, identity_pipeline(2))
scores = class_scores(mdl, x)[0]
best = lifted_plane_scores(mdl, mdl.pipeline.apply(x))[0, class_0].max()
pooled = scores[0]
print(f"\nbest plane {best:.4f} <= pooled {pooled:.4f} "
      f"<= best + log(2)/alpha = {best + np.log(2) / alpha:.4f}")

# Second, the across-class posterior is an ordinary softmax of the
# pooled scores, so it is a probability distribution.
probs = posterior(scores)
print(f"posterior {np.round(probs, 4)} sums to {probs.sum():.6f}")

# At high sharpness the class-0 responsibilities collapse onto the
# single best plane: the model becomes a readable hard-OR of planes.
sharp = plane_responsibilities(mdl.with_alpha(40.0), x)[0, class_0]
print(f"\nat sharpness 40 the class-0 responsibilities are "
      f"{np.round(sharp, 5)}")
