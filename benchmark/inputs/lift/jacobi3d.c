/* 3D 7-point Jacobi sweep (the paper's 3d7pt_star shape) over an
 * 18^3 padded array, 16^3 interior. Canonical tap order. */
double A[18][18][18];
double B[18][18][18];

void jacobi3d(void) {
  for (int i = 1; i < 17; i++)
    for (int j = 1; j < 17; j++)
      for (int k = 1; k < 17; k++)
        B[i][j][k] = 0.1*A[i-1][j][k] + 0.1*A[i][j-1][k] + 0.1*A[i][j][k-1]
                   + 0.4*A[i][j][k] + 0.1*A[i][j][k+1] + 0.1*A[i][j+1][k]
                   + 0.1*A[i+1][j][k];
}
