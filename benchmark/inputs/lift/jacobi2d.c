/* 2D 5-point Jacobi sweep over a 34x34 padded array (32x32 interior,
 * one guard cell per side). Taps are written in canonical
 * (lexicographic offset) order so the lifted fold replays this exact
 * rounding sequence: [-1,0] [0,-1] [0,0] [0,1] [1,0]. */
double A[34][34];
double B[34][34];

void jacobi2d(void) {
  for (int i = 1; i < 33; i++)
    for (int j = 1; j < 33; j++)
      B[i][j] = 0.25*A[i-1][j] + 0.2*A[i][j-1] + 0.1*A[i][j]
              + 0.2*A[i][j+1] + 0.25*A[i+1][j];
}
