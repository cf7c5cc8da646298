/* 3D 27-point box stencil: every neighbour of the 3x3x3 cube weighted
 * equally (1/32 = 0.03125 keeps the literal exact in binary). Writing
 * the taps in odometer order over the cube is already canonical. */
double U[12][12][12];
double V[12][12][12];

void star27(void) {
  for (int i = 1; i < 11; i++)
    for (int j = 1; j < 11; j++)
      for (int k = 1; k < 11; k++)
        V[i][j][k] =
            0.03125*U[i-1][j-1][k-1] + 0.03125*U[i-1][j-1][k] + 0.03125*U[i-1][j-1][k+1]
          + 0.03125*U[i-1][j][k-1]   + 0.03125*U[i-1][j][k]   + 0.03125*U[i-1][j][k+1]
          + 0.03125*U[i-1][j+1][k-1] + 0.03125*U[i-1][j+1][k] + 0.03125*U[i-1][j+1][k+1]
          + 0.03125*U[i][j-1][k-1]   + 0.03125*U[i][j-1][k]   + 0.03125*U[i][j-1][k+1]
          + 0.03125*U[i][j][k-1]     + 0.1875*U[i][j][k]      + 0.03125*U[i][j][k+1]
          + 0.03125*U[i][j+1][k-1]   + 0.03125*U[i][j+1][k]   + 0.03125*U[i][j+1][k+1]
          + 0.03125*U[i+1][j-1][k-1] + 0.03125*U[i+1][j-1][k] + 0.03125*U[i+1][j-1][k+1]
          + 0.03125*U[i+1][j][k-1]   + 0.03125*U[i+1][j][k]   + 0.03125*U[i+1][j][k+1]
          + 0.03125*U[i+1][j+1][k-1] + 0.03125*U[i+1][j+1][k] + 0.03125*U[i+1][j+1][k+1];
}
