/* Anisotropic 2D 9-point star of radius 2: distinct (some negative)
 * coefficients per tap, two guard cells per side (36x36 padded, 32x32
 * interior). Canonical tap order:
 * [-2,0] [-1,0] [0,-2] [0,-1] [0,0] [0,1] [0,2] [1,0] [2,0]. */
double P[36][36];
double Q[36][36];

void varcoef2d(void) {
  for (int i = 2; i < 34; i++)
    for (int j = 2; j < 34; j++)
      Q[i][j] = 0.01*P[i-2][j] + 0.07*P[i-1][j]
              + 0.02*P[i][j-2] + 0.11*P[i][j-1]
              + 0.5*P[i][j]
              - 0.12*P[i][j+1] + 0.03*P[i][j+2]
              + 0.08*P[i+1][j] - 0.04*P[i+2][j];
}
