"""The nine evaluated N-body problems (paper Table III), each a thin
wrapper over the Portal DSL or the tree/traversal substrate."""

from .barnes_hut import barnes_hut_potential
from .em import GaussianMixtureEM, em_fit
from .emst import EMSTResult, emst
from .hausdorff import directed_hausdorff, hausdorff
from .kde import kde
from .knn import knn
from .naive_bayes import NaiveBayesClassifier, naive_bayes_fit
from .range_search import range_count, range_search
from .two_point import two_point_correlation

__all__ = [
    "knn", "kde", "range_search", "range_count", "directed_hausdorff",
    "hausdorff", "emst", "EMSTResult", "GaussianMixtureEM", "em_fit",
    "NaiveBayesClassifier", "naive_bayes_fit", "two_point_correlation",
    "barnes_hut_potential",
]

from .three_point import three_point_correlation  # noqa: E402

__all__ += ["three_point_correlation"]

from .correlation_function import (  # noqa: E402
    XiResult, binned_pair_counts, landy_szalay, pair_count,
)

__all__ += ["pair_count", "binned_pair_counts", "landy_szalay", "XiResult"]

from .mean_shift import MeanShiftResult, mean_shift  # noqa: E402

__all__ += ["mean_shift", "MeanShiftResult"]

from .dbscan import NOISE, DBSCANResult, dbscan  # noqa: E402

__all__ += ["dbscan", "DBSCANResult", "NOISE"]

from .kmeans import KMeansResult, kmeans  # noqa: E402

__all__ += ["kmeans", "KMeansResult"]

from .knn_classifier import KNNClassifier, knn_regress  # noqa: E402

__all__ += ["KNNClassifier", "knn_regress"]
